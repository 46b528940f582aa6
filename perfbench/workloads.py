"""The benchmark's two workloads: ``explore`` and ``service``.

A workload does its set-up in its constructor - importing the layers it
drives is part of that set-up, so each class imports them there - then
:meth:`run` runs it for at least ``seconds`` of host time and
:meth:`verify` checks every output it produced against the reference
gear (the committed golden, or a fresh reference run off the clock).

``explore`` repeats *rounds*, one ``explore`` call each; ``service``
runs a closed loop of client threads against an in-process server for
the whole window.  With ``trace`` set, untraced and traced rounds
(service: two half-length segments) alternate; the traced ones give the
per-layer numbers and the pair gives the tracing overhead.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import golden

#: Per-layer metrics of traced runs (units in BENCHMARK.json).  Every
#: workload reports every name; a layer a workload never calls reads 0.
#: Layer times that only some workloads spend are shares of the round's
#: wall time (service: of the jobs' latency), so those zeros are not
#: times.
PER_LAYER = (
    "trace.get_s", "trace.misses", "trace.hit_ratio", "trace.us_per_inst",
    "core.build_s", "core.run_s", "core.kips", "core.specialized_frac",
    "core.reference_frac", "core.horizon_skip_frac",
    "experiments.parallel_eff", "experiments.warm_frac",
    "experiments.sweep_frac",
    "explore.plan_frac", "explore.payload_frac", "explore.pruned_frac",
    "service.submit_frac", "service.queue_wait_frac", "service.run_frac",
    "service.store_put_frac", "service.polls_per_job",
    "service.store_hit_ratio", "service.shed_frac",
    "tracing.overhead",
)


def percentile(values: Sequence[float], q: float,
               band: float = 0.05) -> float:
    """Mean of the values ranked (nearest rank) from ``q - band`` to
    ``q + band``, q in (0, 1].

    Service latencies sit on the client's 50 ms poll grid; a plain
    nearest-rank percentile jumps a whole grid step (12-19% of the
    median) whenever it crosses from one step to the next.
    """
    ordered = sorted(values)
    low = max(0, math.ceil((q - band) * len(ordered)) - 1)
    high = min(len(ordered), math.ceil((q + band) * len(ordered)))
    return statistics.fmean(ordered[low:high])


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def seed_mean(rounds: Sequence["Round"], value) -> float:
    """Mean over trace seeds of each seed's mean ``value(round)``, so
    every trace seed weighs the same however many rounds it got."""
    by_seed: Dict[int, List[float]] = {}
    for r in rounds:
        by_seed.setdefault(r.trace_seed, []).append(value(r))
    return statistics.fmean(statistics.fmean(values)
                            for values in by_seed.values())


def layer_metrics(spans, wall: float, capacity: float) -> Dict[str, float]:
    """The layer numbers every workload shares, from one traced round.

    ``capacity`` is pool-worker seconds available to the round (workers
    x wall of the pool), the base of ``experiments.parallel_eff``.
    """
    import spans as spanlib

    by_name: Dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(span.seconds for span in by_name.get(name, ()))

    gets = by_name.get("trace.get", [])
    misses = [span for span in gets if span.attrs["miss"]]
    runs = by_name.get("core.run", [])
    own = spanlib.self_seconds(spans)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "trace.get_s": total("trace.get"),
        "trace.misses": len(misses),
        "trace.hit_ratio": _share(len(gets) - len(misses), len(gets)),
        "trace.us_per_inst": _share(
            sum(span.seconds for span in misses) * 1e6,
            sum(span.attrs["length"] for span in misses)),
        "core.build_s": total("core.build"),
        "core.run_s": total("core.run"),
        "core.kips": _share(sum(span.attrs["insts"] for span in runs)
                            / 1000.0, total("core.run")),
        "core.specialized_frac": _share(
            sum(span.attrs["gear"] == "specialized" for span in runs),
            len(runs)),
        "core.reference_frac": _share(
            sum(span.attrs["gear"] == "reference" for span in runs),
            len(runs)),
        "core.horizon_skip_frac": _share(
            sum(span.attrs["skipped"] for span in runs),
            sum(span.attrs["cycles"] for span in runs)),
        "experiments.parallel_eff": _share(total("experiments.cell"),
                                           capacity),
        "experiments.warm_frac": _share(total("experiments.warm"), wall),
        "experiments.sweep_frac": _share(total("experiments.sweep"), wall),
        "explore.plan_frac": _share(total("explore.plan"), wall),
        "explore.payload_frac": _share(
            sum(own[span.id] for span in by_name.get("explore.payload", ())),
            wall),
    })
    return metrics


@dataclass
class Report:
    """What one measured run produced, before and after verification."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    recorders: list = field(default_factory=list)


@dataclass
class Round:
    trace_seed: int
    wall: float
    insts: int
    #: Seconds from the round's start to each cell's result.
    latencies: List[float]
    observed: Dict[str, str]
    layers: Optional[Dict[str, float]] = None


class Explore:
    """``explore()`` on the default 384-cell lattice, default knobs.

    The workload repeats *rounds*: one ``explore`` call each, on an empty
    trace cache, like a fresh ``wsrs explore`` invocation.  Every run
    cycles through the same :attr:`trace_seeds`, in an order fixed by the
    workload seed, and weighs each trace seed the same (:func:`seed_mean`):
    the host time of a round moves by up to 30% from one trace seed to
    the next, so runs over different trace seeds, or over different
    round counts per seed, would differ by that much.  An untimed warm-up
    round comes first, because the first round of a process on an idle
    host runs slow.
    """

    trace_seeds = range(1, 5)

    def __init__(self, seed: int, lattice: Optional[Dict] = None,
                 expected: Optional[Dict] = None) -> None:
        from repro.explore import explore
        from repro.explore.lattice import LatticeSpec
        from repro.trace.cache import default_cache

        self._explore = explore
        self._cache = default_cache
        self.spec = LatticeSpec.from_dict(lattice)
        # The committed goldens cover the default lattice only.
        if expected is None:
            expected = golden.load("explore") if lattice is None else {}
        self.golden = expected
        self.order = list(self.trace_seeds)
        random.Random(seed).shuffle(self.order)
        self._pruned_frac = 0.0

    def close(self) -> None:
        pass

    def round(self, trace_seed: int) -> Round:
        self._cache().clear()
        latencies: List[float] = []
        results = []
        start = time.perf_counter()

        def progress(result) -> None:
            latencies.append(time.perf_counter() - start)
            results.append(result)

        payload = self._explore(self.spec, seed=trace_seed,
                                progress=progress)
        wall = time.perf_counter() - start
        observed = {f"{r.spec.benchmark}/{r.spec.config.name}":
                    golden.stats_digest(r.stats) for r in results}
        observed["payload"] = golden.digest(payload)
        counts = payload["counts"]
        self._pruned_frac = _share(counts["pruned"], counts["valid"])
        return Round(trace_seed=trace_seed, wall=wall,
                     insts=sum(r.spec.measure + r.spec.warmup
                               for r in results),
                     latencies=latencies, observed=observed)

    def truth(self, trace_seed: int) -> Dict[str, str]:
        return golden.explore_truth(self.spec, trace_seed)

    def _traced_round(self, report: Report, trace_seed: int) -> Round:
        import spans as spanlib

        recorder = spanlib.Recorder()
        with spanlib.traced(recorder):
            with recorder.span("round") as root:
                result = self.round(trace_seed)
        sweeps = [span for span in recorder.spans
                  if span.name == "experiments.sweep"]
        capacity = sum(span.seconds * span.attrs["workers"]
                       for span in sweeps)
        result.layers = layer_metrics(recorder.spans, root.seconds,
                                      capacity)
        result.layers["explore.pruned_frac"] = self._pruned_frac
        report.recorders.append(recorder)
        return result

    def run(self, seconds: float, trace: bool) -> Report:
        """Rounds until ``seconds`` have passed and every trace seed has
        had one; with ``trace``, each round is followed by a traced round
        on the same input."""
        report = Report()
        warm_up = self.round(self.order[0])
        plain: List[Round] = []
        traced: List[Round] = []
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(plain) < len(self.order)):
            trace_seed = self.order[len(plain) % len(self.order)]
            plain.append(self.round(trace_seed))
            if trace:
                traced.append(self._traced_round(report, trace_seed))
        # Every workload reports every end-to-end name.  Here each cell
        # simulates a fixed number of instructions and is submitted when
        # the round starts, so the job figures follow from ``sim_kips``.
        report.end_to_end = {
            "sim_kips": seed_mean(
                plain, lambda r: r.insts / r.wall / 1000.0),
            "jobs_per_s": seed_mean(
                plain, lambda r: len(r.latencies) / r.wall),
            "job_p50_ms": seed_mean(
                plain, lambda r: percentile(r.latencies, 0.50)) * 1000.0,
            "job_p90_ms": seed_mean(
                plain, lambda r: percentile(r.latencies, 0.90)) * 1000.0,
        }
        if traced:
            report.layers = {
                name: statistics.median(r.layers[name] for r in traced)
                for name in PER_LAYER}
            report.layers["tracing.overhead"] = statistics.median(
                t.wall / p.wall for p, t in zip(plain, traced))
        self._rounds = [warm_up] + plain + traced
        return report

    def verify(self, report: Report) -> None:
        truths: Dict[int, Dict[str, str]] = {}
        for r in self._rounds:
            if r.trace_seed not in truths:
                truths[r.trace_seed] = (self.golden.get(str(r.trace_seed))
                                        or self.truth(r.trace_seed))
            bad = golden.count_mismatches(r.observed, truths[r.trace_seed])
            report.attempted += len(r.observed)
            report.failed += len(bad)
            report.mismatches.extend(bad)


# -- service ---------------------------------------------------------------

_TERMINAL = ("done", "failed", "cancelled")
#: Pool workers of the service's scheduler.
SERVER_WORKERS = 2


@dataclass
class Job:
    cell: tuple
    repeat: bool
    latency: float = 0.0
    #: Submit reply said the store or in-flight dedup served it.
    served: bool = False
    record: Optional[Dict] = None
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.record is not None and self.record["state"] == "done"


@dataclass
class Segment:
    wall: float
    jobs: List[Job]
    sheds: int

    @property
    def completed(self) -> List[Job]:
        return [job for job in self.jobs if job.done]

    @property
    def fresh(self) -> List[Job]:
        return [job for job in self.completed if not job.repeat]


class Service:
    """A closed loop of client threads against an ``EmbeddedServer``.

    Fresh jobs draw distinct one-cell requests from :attr:`pool` (three
    benchmarks x six machines x 32 trace seeds) in an order fixed by the
    workload seed.  Every fourth job repeats an earlier request, which
    the result store or in-flight dedup serves.  Each server first runs
    an untimed warm-up segment that continues into the timed one.
    """

    benchmarks = ("gzip", "mcf", "swim")
    trace_seeds = range(1, 33)
    repeat_every = 4
    warm_up_s = 3.0

    def __init__(self, seed: int, run_dir: Optional[str] = None,
                 start: bool = True, measure: int = 8_000,
                 warmup: int = 4_000, configs=None,
                 expected: Optional[Dict] = None) -> None:
        from repro.config import figure4_configs
        from repro.service.client import ServiceClient, ServiceError
        from repro.service.server import EmbeddedServer, build_scheduler

        self._client_cls = ServiceClient
        self._client_error = ServiceError
        self._server_cls = EmbeddedServer
        self._build_scheduler = build_scheduler
        self.seed = seed
        self.measure = measure
        self.warmup = warmup
        self.clients = os.cpu_count() or 1
        names = [config.name for config in (configs or figure4_configs())]
        self.pool = [(benchmark, name, trace_seed)
                     for trace_seed in self.trace_seeds
                     for benchmark in self.benchmarks
                     for name in names]
        self.golden = expected if expected is not None else \
            golden.load("service")
        self.run_dir = run_dir
        self._server = None
        self._store_dir: Optional[str] = None
        if start:
            self._start()

    # -- server lifecycle ---------------------------------------------------

    def _start(self, cell_runner=None) -> str:
        self._store_dir = tempfile.mkdtemp(prefix="store-", dir=self.run_dir)
        scheduler = self._build_scheduler(workers=SERVER_WORKERS,
                                          store_dir=self._store_dir,
                                          cell_runner=cell_runner)
        self._server = self._server_cls(scheduler)
        return self._server.start()

    def close(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None

    # -- load ---------------------------------------------------------------

    def _stream(self):
        """Endless (cell, is_repeat) sequence fixed by the seed.

        Fresh cells come in blocks of one trace seed each, covering every
        (benchmark, machine) pair once in shuffled order, so every stretch
        of the run has the same mix.  Past the golden pool, blocks take
        trace seeds from 1000 on.
        """
        rng = random.Random(self.seed)
        block = len(self.pool) // len(self.trace_seeds)
        blocks = [self.pool[start:start + block]
                  for start in range(0, len(self.pool), block)]
        rng.shuffle(blocks)
        issued: List[tuple] = []
        for index in itertools.count():
            if index % self.repeat_every == self.repeat_every - 1:
                yield rng.choice(issued), True
                continue
            fresh = len(issued)
            if fresh % block == 0:
                if fresh // block < len(blocks):
                    cells = list(blocks[fresh // block])
                else:
                    trace_seed = 1000 + fresh // block
                    cells = [(benchmark, name, trace_seed)
                             for benchmark, name, _ in blocks[0]]
                rng.shuffle(cells)
            issued.append(cells[fresh % block])
            yield issued[-1], False

    def _one_job(self, client, cell: tuple, repeat: bool, recorder,
                 parent) -> Job:
        benchmark, config, trace_seed = cell
        request = {"kind": "simulate", "benchmarks": [benchmark],
                   "configs": [config], "measure": self.measure,
                   "warmup": self.warmup, "seed": trace_seed}
        job = Job(cell=cell, repeat=repeat)
        span = (recorder.span("service.job", ident="/".join(map(str, cell)),
                              parent=parent)
                if recorder is not None else nullcontext())
        begin = time.perf_counter()
        try:
            with span:
                reply = client.submit(request)
                job.served = bool(reply.get("cached")
                                  or reply.get("deduped_submission"))
                job.record = reply if reply.get("state") in _TERMINAL \
                    else client.wait(reply["id"])
        except self._client_error as exc:
            job.error = repr(exc)
        job.latency = time.perf_counter() - begin
        return job

    def _segment(self, url: str, seconds: float, stream, recorder=None,
                 parent=None) -> Segment:
        lock = threading.Lock()
        jobs: List[Job] = []
        clients = [self._client_cls(url, client_id=f"perfbench-{index}",
                                    seed=self.seed * 1000 + index)
                   for index in range(self.clients)]
        deadline = time.perf_counter() + seconds

        def drive(client) -> None:
            while time.perf_counter() < deadline:
                with lock:
                    cell, repeat = next(stream)
                jobs.append(self._one_job(client, cell, repeat, recorder,
                                          parent))

        threads = [threading.Thread(target=drive, args=(client,),
                                    name=f"perfbench-client-{index}")
                   for index, client in enumerate(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        return Segment(wall=wall, jobs=jobs,
                       sheds=sum(client.sheds_seen for client in clients))

    def _service_layers(self, segment: Segment, spans) -> Dict[str, float]:
        def total(name: str) -> float:
            return sum(span.seconds for span in spans if span.name == name)

        completed, fresh = segment.completed, segment.fresh
        fresh_latency = sum(job.latency for job in fresh)
        repeats = [job for job in segment.jobs if job.repeat]
        return {
            "service.submit_frac": _share(
                total("service.submit"),
                sum(job.latency for job in completed)),
            "service.queue_wait_frac": _share(
                sum(job.record["started_at"] - job.record["submitted_at"]
                    for job in fresh), fresh_latency),
            "service.run_frac": _share(
                sum(job.record["finished_at"] - job.record["started_at"]
                    for job in fresh), fresh_latency),
            "service.store_put_frac": _share(total("service.store_put"),
                                             fresh_latency),
            "service.polls_per_job": _share(
                sum(span.name == "service.poll" for span in spans),
                len(completed)),
            "service.store_hit_ratio": _share(
                sum(job.served for job in repeats), len(repeats)),
            "service.shed_frac": _share(
                segment.sheds, len(segment.jobs) + segment.sheds),
        }

    def _warm_and_measure(self, url: str, seconds: float,
                          recorder=None) -> List[Segment]:
        """An untimed warm-up segment, then the timed one (inside a
        ``round`` span when traced), on one continuing job stream."""
        stream = self._stream()
        warm_up = self._segment(url, self.warm_up_s, stream)
        with (recorder.span("round") if recorder is not None
              else nullcontext()) as root:
            timed = self._segment(url, seconds, stream, recorder,
                                  root.id if root is not None else None)
        return [warm_up, timed]

    def run(self, seconds: float, trace: bool) -> Report:
        """One timed segment; with ``trace``, two half-length segments,
        the second traced, each on its own server and store."""
        report = Report()
        window = seconds / 2.0 if trace else seconds
        self._segments = self._warm_and_measure(self._server.url, window)
        plain = self._segments[-1]
        self.close()
        if trace:
            import spans as spanlib

            recorder = spanlib.Recorder()
            with spanlib.traced(recorder):
                url = self._start(cell_runner=spanlib.traced_execute)
                self._segments += self._warm_and_measure(url, window,
                                                         recorder)
                self.close()
            traced = self._segments[-1]
            root = next(span for span in recorder.spans
                        if span.name == "round")
            timed = [span for span in recorder.spans
                     if span.start >= root.start]
            report.recorders.append(recorder)
            report.layers = layer_metrics(
                timed, traced.wall, SERVER_WORKERS * traced.wall)
            report.layers.update(self._service_layers(traced, timed))
            report.layers["tracing.overhead"] = (
                _share(traced.wall, len(traced.completed))
                / _share(plain.wall, len(plain.completed)))
        latencies = [job.latency for job in plain.completed]
        report.end_to_end = {
            "sim_kips": len(plain.fresh) * (self.measure + self.warmup)
            / plain.wall / 1000.0,
            "jobs_per_s": len(plain.completed) / plain.wall,
            "job_p50_ms": percentile(latencies, 0.50) * 1000.0,
            "job_p90_ms": percentile(latencies, 0.90) * 1000.0,
        }
        return report

    def verify(self, report: Report) -> None:
        jobs = [job for segment in self._segments for job in segment.jobs]
        missing = {job.cell for job in jobs
                   if job.done and "/".join(map(str, job.cell))
                   not in self.golden}
        expected = dict(self.golden)
        if missing:
            expected.update(golden.service_truth(sorted(missing),
                                                 self.measure, self.warmup))
        for job in jobs:
            report.attempted += 1
            key = "/".join(map(str, job.cell))
            if job.done:
                cells = job.record["result"]["cells"]
                if (len(cells) == 1 and expected.get(key)
                        == golden.digest(cells[0]["summary"])):
                    continue
            report.failed += 1
            report.mismatches.append(job.error or key)


def make(name: str, seed: int, run_dir: str):
    """Set up one workload by name (the service keeps its store in
    ``run_dir``)."""
    if name == "service":
        return Service(seed, run_dir=run_dir)
    return Explore(seed)

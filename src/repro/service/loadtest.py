"""Multi-client load harness: ``wsrs loadtest`` -> ``BENCH_service.json``.

Drives ``clients`` concurrent clients (real threads, real HTTP, real
retry/backoff behaviour) against a live service - an external one via
``url=...`` or an :class:`~repro.service.server.EmbeddedServer` spun up
in-process - and answers the two questions that matter for a service in
front of the simulator:

* **Is it correct under concurrency?**  Every cell a client received is
  compared against a direct
  :func:`repro.experiments.runner.run_matrix` execution of the same
  (benchmark, configuration) matrix.  The simulator is deterministic,
  so the comparison is *bit-identical equality* of the full statistic
  summaries (after one JSON round-trip, which Python floats survive
  exactly) - not approximate closeness.
* **What does it cost?**  Per pass: throughput (jobs/s), client-observed
  latency percentiles (p50/p95/p99), and the shed rate (submissions
  that received a 429/503 and backed off).  The run executes
  ``passes >= 2`` identical passes: the first pays for the simulations,
  later passes must be served from the deduplicating result store - the
  record's ``cache_hits`` counts the store short-circuits scraped from
  ``/metrics``, and the acceptance gate requires it to be nonzero.

With ``--fleet`` (:func:`run_fleet` -> ``BENCH_fleet.json``) the same
harness answers the extra questions a *fleet* raises:

* **Does the fleet actually scale?**  The same job matrix runs against
  local fleets of 1..N worker processes (real sockets, real worker
  daemons), :data:`TIMED_PASSES` timed passes per node count.  Every
  fleet must return cells **bit-identical** to a direct
  :func:`repro.experiments.runner.run_matrix` execution, and the
  scaling record keeps each pass's throughput, p95 latency, shed counts
  and the jobs each node ran.  The record states the speedup - the
  largest fleet's median pass throughput over the 1-worker median -
  against its basis, ``min(workers, cpu_count)``: nodes that simulate
  on fewer cores than there are nodes cannot all run at once
  (:func:`fleet_speedup`).  Nothing gates on the speedup; the gates
  are bit-identity and the kill and drain passes.
* **Does the fleet survive a node loss?**  The kill pass submits the
  matrix to a fresh fleet and SIGKILLs a worker while it holds a lease;
  every job must complete - the lost lease requeued within the retry
  budget - still bit-identical, with at least one requeue.  The drain
  pass SIGTERMs a lease holder instead: it must report what it holds,
  so nothing is requeued.

Fleet traces are pre-generated through a shared on-disk trace cache
(``WSRS_TRACE_CACHE``) by the direct ground-truth run, so no fleet pays
trace-generation cost and the node-count comparison measures
simulation, not workload synthesis.

Every JSON record is published atomically (:mod:`repro.atomicio`), so a
monitoring job never reads a torn benchmark file.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.atomicio import atomic_write_json
from repro.config import config_by_name
from repro.experiments.runner import run_matrix
from repro.service.client import ServiceClient
from repro.service.jobs import cell_payload
from repro.service.server import EmbeddedServer, build_scheduler
from repro.trace.cache import DISK_ENV

#: Default matrix: two benchmarks x two configurations - the smallest
#: sweep that exercises dedup keys across both axes.
DEFAULT_BENCHMARKS = ("gzip", "mcf")
DEFAULT_CONFIGS = ("RR 256", "WSRS RC S 512")

#: Default fleet matrix: 2 benchmarks x 4 configurations = 8 jobs, so a
#: three-node fleet has real work to share (three rounds at best)
#: rather than one key per node.
FLEET_CONFIGS = ("RR 256", "WSRR 512", "WSRS RC S 512", "WSRS RM S 512")

#: Default fleet cell size (measured / warm-up instructions): about
#: 0.3 s of simulation per cell on one core, so a pass times the
#: simulator rather than HTTP and the lease exchange around it.
FLEET_MEASURE = 20_000
FLEET_WARMUP = 10_000

#: Timed compute passes per fleet size.  Pass ``i`` runs the matrix at
#: trace seed ``seed + i``, because a repeated key would be answered by
#: the result store instead of simulated.  The speedup compares median
#: pass throughputs, so one late round on a shared host - or a first
#: pass that pays each pool child's imports - does not move it.
TIMED_PASSES = 3


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """True nearest-rank percentile (q in [0, 1]).

    Returns ``None`` for an empty sequence: an all-shed pass has *no*
    latency, not a perfect 0.0 ms one, and the record must say so
    rather than masking the outage with flattering numbers.
    """
    if not values:
        return None
    ordered = sorted(values)
    if q <= 0.0:
        return ordered[0]
    rank = min(len(ordered), math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _round_ms(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 3)


def _job_requests(benchmarks: Sequence[str], configs: Sequence[str],
                  measure: int, warmup: int, seed: int) -> List[Dict]:
    """One ``simulate`` job per cell: per-cell idempotency keys, so a
    repeat pass hits the result store once per cell."""
    return [
        {"kind": "simulate", "benchmarks": [benchmark],
         "configs": [config], "measure": measure, "warmup": warmup,
         "seed": seed}
        for benchmark in benchmarks
        for config in configs
    ]


def _drive_pass(url: str, requests: List[Dict], clients: int,
                timeout: float, seed: int) -> Tuple[List[Dict], Dict]:
    """One pass: round-robin the requests over ``clients`` threads.

    Returns the terminal job records of the *completed* jobs in request
    order and the pass record: throughput, client-observed latency
    percentiles, sheds, requeues and failure descriptions.  A job that
    sheds out or fails does not abort the pass - the remaining jobs
    still run, and the record flags the pass as degraded instead of
    masking the outage.
    """
    records: List[Optional[Dict]] = [None] * len(requests)
    latencies: List[Optional[float]] = [None] * len(requests)
    failures: List[str] = []
    workers: List[threading.Thread] = []
    handles = [
        ServiceClient(url, client_id=f"loadtest-{index}",
                      seed=seed * 1000 + index)
        for index in range(clients)
    ]

    def drive(client_index: int) -> None:
        client = handles[client_index]
        for index in range(client_index, len(requests), clients):
            begin = time.monotonic()
            try:
                record = client.submit_and_wait(requests[index],
                                                timeout=timeout)
            except Exception as exc:
                failures.append(f"job {index}: {exc!r}")
                continue
            records[index] = record
            latencies[index] = (time.monotonic() - begin) * 1000.0

    wall_start = time.monotonic()
    for client_index in range(min(clients, len(requests))):
        thread = threading.Thread(target=drive, args=(client_index,),
                                  name=f"loadtest-client-{client_index}")
        thread.start()
        workers.append(thread)
    for thread in workers:
        thread.join()
    wall = time.monotonic() - wall_start
    sheds = sum(client.sheds_seen for client in handles)
    done = [record for record in records if record is not None]
    observed = [latency for latency in latencies if latency is not None]
    submissions = len(requests) + sheds
    return done, {
        "jobs": len(requests),
        "completed": len(done),
        "failures": failures,
        "degraded": len(done) < len(requests),
        "wall_seconds": round(wall, 3),
        "throughput_jobs_per_s":
            round(len(done) / wall, 3) if wall else 0.0,
        # None (JSON null) when nothing completed: an all-shed pass has
        # no latency, not a flattering 0.0 ms one.
        "latency_ms": {
            "p50": _round_ms(percentile(observed, 0.50)),
            "p95": _round_ms(percentile(observed, 0.95)),
            "p99": _round_ms(percentile(observed, 0.99)),
        },
        "sheds": sheds,
        "shed_rate": round(sheds / submissions, 4) if submissions
        else 0.0,
        "requeues": sum(
            1 for record in done
            for note in record.get("notes", []) if "requeued" in note),
        "cached_jobs": sum(1 for record in done if record.get("cached")),
    }


def _cells_of(records: List[Dict]) -> List[Dict]:
    return [cell for record in records
            for cell in record["result"]["cells"]]


def _scrape_counter(metrics_text: str, name: str) -> int:
    for line in metrics_text.splitlines():
        if line.startswith(name + " "):
            try:
                return int(float(line.split()[1]))
            except (IndexError, ValueError):
                return 0
    return 0


def _direct_cells(benchmarks: Sequence[str], configs: Sequence[str],
                  measure: int, warmup: int, seed: int,
                  workers: Optional[int]) -> List[Dict]:
    """The ground truth: the same matrix through run_matrix, shaped like
    the service's cell payloads and JSON-round-tripped once."""
    import json

    table = run_matrix([config_by_name(name) for name in configs],
                       benchmarks, measure=measure, warmup=warmup,
                       seed=seed, workers=workers)
    cells = []
    for benchmark in benchmarks:
        for config in configs:
            payload = cell_payload(table[benchmark][config])
            cells.append(json.loads(json.dumps(payload)))
    return cells


def run(url: Optional[str] = None, clients: int = 4,
        benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
        configs: Sequence[str] = DEFAULT_CONFIGS,
        measure: int = 4_000, warmup: int = 2_000, seed: int = 1,
        passes: int = 2, out: Optional[str] = "BENCH_service.json",
        server_workers: int = 2, direct_workers: Optional[int] = None,
        job_timeout: float = 600.0,
        announce: Callable[[str], None] = print) -> Dict:
    """Run the load test; returns (and optionally writes) the record.

    With ``url=None`` an embedded server (result store in a temporary
    directory, ``server_workers`` pool processes) hosts the test.  The
    record's ``identical`` field is the acceptance gate: every cell the
    service returned, on every pass, bit-identical to direct execution.
    ``degraded`` flags a run where some job never completed (shed past
    the retry budget, failed, or unreachable); such a pass reports
    ``null`` latency percentiles over the jobs that never finished
    rather than pretending they were instant.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    requests = _job_requests(benchmarks, configs, measure, warmup, seed)
    own_server: Optional[EmbeddedServer] = None
    store_tmp: Optional[tempfile.TemporaryDirectory] = None
    if url is None:
        store_tmp = tempfile.TemporaryDirectory(prefix="wsrs-loadtest-")
        scheduler = build_scheduler(workers=server_workers,
                                    store_dir=store_tmp.name,
                                    job_timeout=job_timeout)
        own_server = EmbeddedServer(scheduler)
        url = own_server.start()
        announce(f"loadtest: embedded service at {url} "
                 f"({server_workers} worker(s))")
    try:
        pass_records: List[Dict] = []
        all_pass_cells: List[List[Dict]] = []
        for pass_index in range(passes):
            records, pass_record = _drive_pass(
                url, requests, clients, job_timeout, seed + pass_index)
            all_pass_cells.append(_cells_of(records))
            pass_records.append(pass_record)
            p95 = pass_record["latency_ms"]["p95"]
            announce(f"loadtest: pass {pass_index + 1}/{passes} - "
                     f"{pass_record['throughput_jobs_per_s']} "
                     f"jobs/s, p95 "
                     f"{'n/a' if p95 is None else format(p95, '.0f')} "
                     f"ms, {pass_record['sheds']} shed(s)"
                     + (f", DEGRADED ({pass_record['completed']}/"
                        f"{len(requests)} completed)"
                        if pass_record["degraded"] else ""))

        metrics_text = ServiceClient(url, client_id="loadtest").metrics()
        cache_hits = _scrape_counter(metrics_text,
                                     "wsrs_result_cache_hits_total")
        announce("loadtest: verifying against direct run_matrix "
                 "execution...")
        direct = _direct_cells(benchmarks, configs, measure, warmup,
                               seed, direct_workers)
        identical = all(cells == direct for cells in all_pass_cells)
        degraded = any(pass_record["degraded"]
                       for pass_record in pass_records)
        record = {
            "benchmark": "service-loadtest",
            "clients": clients,
            "cells": len(requests),
            "measure": measure,
            "warmup": warmup,
            "seed": seed,
            "passes": pass_records,
            "cache_hits": cache_hits,
            "identical": identical,
            "degraded": degraded,
        }
        if out:
            atomic_write_json(out, record, indent=2)
            announce(f"loadtest: wrote {out}")
        announce(f"loadtest: identical={identical} "
                 f"cache_hits={cache_hits}"
                 + (" degraded=True" if degraded else ""))
        return record
    finally:
        if own_server is not None:
            own_server.stop()
        if store_tmp is not None:
            store_tmp.cleanup()


def run_fleet(workers: int = 3, clients: int = 8,
              benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
              configs: Sequence[str] = FLEET_CONFIGS,
              measure: int = FLEET_MEASURE, warmup: int = FLEET_WARMUP,
              seed: int = 1, out: Optional[str] = "BENCH_fleet.json",
              server_workers: int = 1,
              direct_workers: Optional[int] = None,
              job_timeout: float = 600.0, kill_test: bool = True,
              announce: Callable[[str], None] = print) -> Dict:
    """Run the fleet bench; returns (and optionally writes) the record.

    ``workers`` is the *largest* fleet; scaling points run at every
    node count from 1 to ``workers``.  ``server_workers`` is each
    node's pool size (1 keeps the scaling clean: N nodes = N cells in
    flight).
    """
    from repro.fleet.local import LocalFleet

    if workers < 1:
        raise ValueError("workers must be >= 1")
    requests = _job_requests(benchmarks, configs, measure, warmup, seed)
    clients = max(1, min(clients, len(requests)))

    # One shared on-disk trace cache for the ground-truth run, every
    # worker process, and every pool child - so trace generation is
    # paid exactly once, before any fleet exists.
    own_cache: Optional[tempfile.TemporaryDirectory] = None
    previous_cache = os.environ.get(DISK_ENV)
    if previous_cache is None:
        own_cache = tempfile.TemporaryDirectory(
            prefix="wsrs-fleet-traces-")
        os.environ[DISK_ENV] = own_cache.name
    try:
        announce(f"fleet bench: direct ground truth "
                 f"({TIMED_PASSES} x {len(requests)} cells)...")
        timed = [(_job_requests(benchmarks, configs, measure, warmup,
                                seed + index),
                  _direct_cells(benchmarks, configs, measure, warmup,
                                seed + index, direct_workers))
                 for index in range(TIMED_PASSES)]
        direct = timed[0][1]

        def local_fleet(count: int) -> LocalFleet:
            return LocalFleet(workers=count, server_workers=server_workers,
                              job_timeout=job_timeout,
                              announce=lambda _m: None)

        scaling: List[Dict] = []
        identical = True
        for count in range(1, workers + 1):
            announce(f"fleet bench: {count} worker(s)...")
            with local_fleet(count) as fleet:
                passes = []
                matches = []
                for pass_requests, truth in timed:
                    before = _jobs_per_node(fleet)
                    records, compute = _drive_pass(
                        fleet.url, pass_requests, clients, job_timeout,
                        seed)
                    compute["jobs_per_node"] = [
                        done - before.get(url, 0) for url, done
                        in sorted(_jobs_per_node(fleet).items())]
                    passes.append(compute)
                    matches.append(_cells_of(records) == truth)

            point = {
                "workers": count,
                "server_workers": server_workers,
                "passes": passes,
                "identical": all(matches),
            }
            identical = identical and point["identical"]
            scaling.append(point)
            announce(
                f"fleet bench: {count} worker(s) - jobs/s "
                + " / ".join(str(compute["throughput_jobs_per_s"])
                             for compute in passes)
                + ", p95 ms "
                + " / ".join(str(compute["latency_ms"]["p95"])
                             for compute in passes)
                + f", jobs per node {passes[-1]['jobs_per_node']}")

        cpu_count = os.cpu_count()
        speedup, basis = fleet_speedup(scaling, cpu_count)

        kills: Dict[str, Optional[Dict]] = {"kill": None, "drain": None}
        if kill_test and workers >= 2:
            for name, signum in (("kill", signal.SIGKILL),
                                 ("drain", signal.SIGTERM)):
                announce(f"fleet bench: {name} test ({workers} workers, "
                         f"{signal.Signals(signum).name} a lease "
                         f"holder)...")
                with local_fleet(workers) as fleet:
                    kills[name] = result = _kill_pass(
                        fleet, requests, direct, job_timeout, seed,
                        signum)
                identical = identical and result["identical"]
                announce(f"fleet bench: {name} test - "
                         f"{result['completed']}/{result['jobs']} "
                         f"completed, {result['requeues']} requeue(s), "
                         f"identical={result['identical']}, "
                         f"ok={result['ok']}")

        record = {
            "benchmark": "fleet-loadtest",
            "clients": clients,
            "cells": len(requests),
            "measure": measure,
            "warmup": warmup,
            "seed": seed,
            "cpu_count": cpu_count,
            "scaling": scaling,
            "speedup": speedup,
            "speedup_basis": basis,
            "kill": kills["kill"],
            "drain": kills["drain"],
            "identical": identical,
        }
        if out:
            atomic_write_json(out, record, indent=2)
            announce(f"fleet bench: wrote {out}")
        announce(f"fleet bench: identical={identical} "
                 f"speedup={speedup}x of {basis}x possible "
                 f"({workers} worker(s) vs 1 on {cpu_count} CPU(s), "
                 f"medians of {TIMED_PASSES} passes)")
        return record
    finally:
        if own_cache is not None:
            if previous_cache is None:
                os.environ.pop(DISK_ENV, None)
            own_cache.cleanup()


def fleet_speedup(scaling: Sequence[Dict], cpu_count: Optional[int]
                  ) -> Tuple[float, int]:
    """The largest fleet's median pass throughput over the first's, and
    the basis to read it against: ``min(workers, cpu_count)``, the most
    that many CPU-bound nodes can gain on this host."""
    def median(point: Dict) -> float:
        return statistics.median(record["throughput_jobs_per_s"]
                                 for record in point["passes"])

    workers = scaling[-1]["workers"]
    basis = min(workers, cpu_count or workers)
    base = median(scaling[0])
    return (round(median(scaling[-1]) / base, 3) if base else 0.0), basis


def _jobs_per_node(fleet) -> Dict[str, int]:
    return {node["url"]: node["jobs_done"]
            for node in fleet.coordinator.fleet_summary()["workers"]}


def _kill_pass(fleet, requests: List[Dict], direct: List[Dict],
               job_timeout: float, seed: int, signum: int) -> Dict:
    """Submit the matrix, kill a lease holder with ``signum``, require
    full completion: with a requeue after SIGKILL, without one after
    SIGTERM (the draining node reports what it holds)."""
    client = ServiceClient(fleet.url, client_id="fleet-kill", seed=seed)
    begin = time.monotonic()
    submitted = [client.submit(request) for request in requests]
    victim = fleet.kill_holder(signum)
    finals = [client.wait(record["id"], timeout=job_timeout)
              for record in submitted]
    wall = time.monotonic() - begin
    counters = fleet.coordinator.registry.counters
    completed = [record for record in finals
                 if record.get("state") == "done"]
    requeues = counters.get("fleet_requeues_total", 0)
    identical = (len(completed) == len(requests)
                 and _cells_of(finals) == direct)
    return {
        "signal": signal.Signals(signum).name,
        "jobs": len(requests),
        "completed": len(completed),
        "victim": victim,
        "wall_seconds": round(wall, 3),
        "requeues": requeues,
        "leases_lost": counters.get("fleet_leases_lost_total", 0),
        "identical": identical,
        "ok": identical and (requeues >= 1 if signum == signal.SIGKILL
                             else requeues == 0),
    }

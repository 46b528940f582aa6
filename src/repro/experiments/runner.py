"""Shared experiment plumbing: specs, execution, and the parallel engine.

Experiments bind a machine configuration to a benchmark trace and run the
simulator for a warm-up phase (caches + branch predictor) followed by a
measured slice, mirroring the methodology of section 5.3 (fast-forward,
warm, then measure).  The paper measures 10 M-instruction slices; a pure
Python simulator is ~10^2 slower than the authors' C simulator, so the
default slice here is 100 K instructions with a 120 K warm-up - the
``scale`` knob multiplies both for higher-fidelity runs.

Experiment matrices are embarrassingly parallel - every (benchmark,
configuration) cell is an independent simulation on a byte-identical
input stream - so :func:`run_matrix` and :func:`execute_many` fan cells
out over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* ``workers=None`` uses every core (``os.cpu_count()``); ``workers=1``
  is a plain in-process loop kept as the determinism-debugging escape
  hatch (one process, one breakpoint, strictly sequential cells);
* before spawning workers, the parent pre-warms the process-wide trace
  cache (:mod:`repro.trace.cache`) with every distinct workload of the
  matrix, so forked workers inherit each trace's eager prefix through
  copy-on-write pages instead of regenerating it (each worker extends
  its own copy of the short slack tail its runs read);
* ``progress(...)`` callbacks stream in the parent as futures complete,
  in completion order; results are reassembled in spec order, so the
  returned structure - and every statistic in it - is bit-identical to
  the serial path's (the simulator is deterministic and each cell's RNG
  state is derived only from its own spec).

Everything crossing the pool boundary (:class:`RunSpec`,
:class:`RunResult`, :class:`~repro.core.stats.SimulationStats`) is plain
picklable data.
"""

from __future__ import annotations

import os
import signal
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, \
    Sequence, Set

from repro.config import MachineConfig
from repro.core.processor import Processor
from repro.core.stats import SimulationStats
from repro.trace.cache import TRACE_SLACK, BranchReplay, default_cache

#: Default measured-slice and warm-up lengths (instructions).
DEFAULT_MEASURE = 100_000
DEFAULT_WARMUP = 120_000


@dataclass(frozen=True)
class RunSpec:
    """One (configuration, benchmark) simulation request."""

    config: MachineConfig
    benchmark: str
    measure: int = DEFAULT_MEASURE
    warmup: int = DEFAULT_WARMUP
    seed: int = 1
    predictor: str = "2bcgskew"
    #: Run under the cycle-level pipeline sanitizer
    #: (:mod:`repro.verify.sanitizer`).  ``False`` still honours the
    #: ``WSRS_SANITIZE`` environment switch in the worker process.
    sanitize: bool = False
    #: Attach the observability layer (:mod:`repro.obs`): CPI-stack
    #: cycle accounting plus the counter/histogram registry.  The
    #: result then carries :attr:`RunResult.obs`; every statistic stays
    #: bit-identical to an unobserved run.
    observe: bool = False
    #: Explicit main-loop gear ("reference" | "specialized"); ``None``
    #: runs the specialized gear.  The specialized gear hands the rest
    #: of a run to the reference stepper when its mid-run guard trips
    #: (statistics stay bit-identical either way);
    #: :attr:`RunResult.gear` records the gear that finished the run.
    gear: Optional[str] = None

    @property
    def trace_length(self) -> int:
        return self.warmup + self.measure + TRACE_SLACK


@dataclass
class RunResult:
    """Simulation outcome of one run."""

    spec: RunSpec
    stats: SimulationStats
    #: Observability snapshot (plain picklable data: the CPI stack under
    #: ``obs["causes"]``, registry counters/histograms, steering mirror)
    #: when the spec asked for ``observe=True``; None otherwise.
    obs: Optional[dict] = None
    #: Gear provenance, kept out of ``stats`` (whose summary the golden
    #: digests cover): the gear that finished the run and how many
    #: mid-run guard trips left the specialized gear.
    gear: Optional[str] = None
    despecializations: int = 0

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def unbalancing_degree(self) -> float:
        return self.stats.unbalancing_degree


class ExperimentInterrupted(RuntimeError):
    """A matrix run was stopped early (Ctrl-C or SIGTERM).

    Raised by :func:`execute_many` after the worker pool has been torn
    down cleanly: queued cells cancelled, running workers reaped, no
    orphaned processes.  :attr:`results` carries every cell that
    completed before the interrupt, in spec order, so callers can flush
    partial tables instead of losing the whole sweep.
    """

    def __init__(self, results: List["RunResult"]) -> None:
        super().__init__(
            f"experiment interrupted; {len(results)} cell(s) completed")
        self.results = results


def shutdown_pool(pool: ProcessPoolExecutor,
                  cancel_pending: bool = True) -> None:
    """Orderly pool teardown: drop queued work, reap every worker.

    ``cancel_pending`` cancels cells that have not started; cells already
    running complete (a simulation cannot be interrupted mid-cycle) and
    their processes are joined before this returns.  Shared with the
    service scheduler's drain path (:mod:`repro.service.scheduler`).
    """
    pool.shutdown(wait=True, cancel_futures=cancel_pending)


@contextmanager
def sigterm_interrupts() -> Iterator[None]:
    """Deliver SIGTERM as :class:`KeyboardInterrupt` while active.

    Lets one cleanup path (the ``except KeyboardInterrupt`` around the
    pool loop) serve both Ctrl-C and a supervisor's TERM.  A no-op off
    the main thread, where CPython forbids installing signal handlers -
    there the embedding host owns signal routing.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def execute(spec: RunSpec) -> RunResult:
    """Run one simulation to completion (the pool worker entry point).

    The run replays its trace entry's branch-outcome memo
    (:class:`repro.trace.cache.BranchOutcomes`), so every cell on a
    cached trace shares one predictor's work.
    """
    entry = default_cache().get(spec.benchmark, spec.trace_length,
                                seed=spec.seed)
    processor = Processor(spec.config, iter(entry),
                          predictor=BranchReplay(
                              entry.outcomes(spec.predictor)),
                          sanitize=True if spec.sanitize else None,
                          observe=spec.observe,
                          gear=spec.gear)
    stats = processor.run(measure=spec.measure, warmup=spec.warmup)
    obs = processor.obs.snapshot() if processor.obs is not None else None
    return RunResult(spec=spec, stats=stats, obs=obs, gear=processor.gear,
                     despecializations=processor.despecializations)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers=`` knob to a concrete positive count."""
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def warm_trace_cache(specs: Sequence[RunSpec]) -> int:
    """Materialise every distinct workload of ``specs`` into the cache.

    Returns the number of distinct workloads.  Called by the parallel
    engine before forking so workers share the parent's traces; also
    useful on its own to pay generation cost up front (every eager
    prefix; the slack tail still comes on demand).
    """
    seen: Set[tuple] = set()
    cache = default_cache()
    for spec in specs:
        key = (spec.benchmark, spec.trace_length, spec.seed)
        if key not in seen:
            seen.add(key)
            cache.get(*key)
    return len(seen)


def execute_many(
    specs: Sequence[RunSpec],
    workers: Optional[int] = None,
    progress: Optional[Callable[[RunResult], None]] = None,
) -> List[RunResult]:
    """Run every spec, fanning out over a process pool when ``workers>1``.

    Results come back in ``specs`` order regardless of completion order.
    ``progress``, when given, is called as ``progress(result)`` once per
    finished cell - in spec order when serial, in completion order when
    parallel.
    """
    workers = resolve_workers(workers)
    if workers == 1 or len(specs) <= 1:
        results = []
        for spec in specs:
            result = execute(spec)
            results.append(result)
            if progress is not None:
                progress(result)
        return results

    slots: List[Optional[RunResult]] = [None] * len(specs)
    pool: Optional[ProcessPoolExecutor] = None
    try:
        # The interrupt window opens before trace warming: a TERM during
        # the (potentially long) generation phase must also exit through
        # ExperimentInterrupted rather than the default kill.
        with sigterm_interrupts():
            # Generate each distinct trace's eager prefix once,
            # pre-fork: forked workers then read the parent's prefixes
            # via copy-on-write pages.
            warm_trace_cache(specs)
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(specs)))
            future_index = {pool.submit(execute, spec): index
                            for index, spec in enumerate(specs)}
            pending = set(future_index)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    result = future.result()
                    slots[future_index[future]] = result
                    if progress is not None:
                        progress(result)
    except (KeyboardInterrupt, SystemExit) as exc:
        # Flush what finished; the finally below reaps the workers, so
        # an interrupted sweep leaves neither orphans nor torn results.
        partial = [result for result in slots if result is not None]
        raise ExperimentInterrupted(partial) from exc
    finally:
        if pool is not None:
            shutdown_pool(pool)
    return [result for result in slots if result is not None]


def matrix_specs(
    configs: Sequence[MachineConfig],
    benchmarks: Iterable[str],
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 1,
) -> List[RunSpec]:
    """The spec list of a full (benchmark x config) matrix, row-major."""
    return [
        RunSpec(config=config, benchmark=benchmark, measure=measure,
                warmup=warmup, seed=seed)
        for benchmark in benchmarks
        for config in configs
    ]


def run_matrix(
    configs: Sequence[MachineConfig],
    benchmarks: Iterable[str],
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 1,
    progress: Optional[Callable] = None,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Run every (benchmark, config) pair.

    Returns ``results[benchmark][config_name]``.  ``progress``, when
    given, is called as ``progress(benchmark, config_name, result)`` after
    each run (used by the CLI to stream rows).  ``workers`` selects the
    execution engine: ``None`` (the default) uses every core, >1 that
    many pool workers, and 1 the strictly serial in-process path (the
    determinism-debugging escape hatch) - per-cell results are
    bit-identical either way, only the ``progress`` callback order
    differs.
    """
    benchmarks = list(benchmarks)
    specs = matrix_specs(configs, benchmarks, measure=measure,
                         warmup=warmup, seed=seed)

    cell_progress = None
    if progress is not None:
        def cell_progress(result: RunResult) -> None:
            progress(result.spec.benchmark, result.spec.config.name, result)

    cells = execute_many(specs, workers=workers, progress=cell_progress)
    results: Dict[str, Dict[str, RunResult]] = {
        benchmark: {} for benchmark in benchmarks}
    for result in cells:
        results[result.spec.benchmark][result.spec.config.name] = result
    return results


def format_ipc_table(results: Dict[str, Dict[str, RunResult]],
                     config_names: List[str]) -> str:
    """Figure 4-style text table: one row per benchmark, IPC per config."""
    width = max((len(n) for n in results), default=9) + 1
    header = " " * width + "".join(f"{name:>16s}" for name in config_names)
    lines = [header]
    for benchmark, row in results.items():
        cells = "".join(f"{row[name].ipc:>16.3f}" for name in config_names)
        lines.append(f"{benchmark:<{width}s}{cells}")
    return "\n".join(lines)

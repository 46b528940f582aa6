"""Core-loop profiling instrument (``BENCH_core.json``).

Where the repository benchmark (``perfbench/``, compared across
commits by :mod:`repro.experiments.ab`) times whole workloads, this
module measures the *core simulation loop* itself: one cell per
section-5 configuration, run twice on the same pre-materialised trace
- reference per-cycle stepper and the config-specialized stepper
(:mod:`repro.core.specialize`) - and cross-checked for bit-identical
statistics.  The record keeps the
speedups tracked artifacts instead of claims:

* **sim-KIPS per gear** - thousands of simulated instructions retired
  per second of wall-clock, for each of the two gears;
* **speedup** - the specialized/reference ratio, plus how often the
  specialized gear's event-horizon jump fires and what it saves;
* **identical** - full ``SimulationStats`` summary plus the per-cluster
  histograms compared across both gears (any divergence is a bug, and
  the CLI exits non-zero);
* **stage breakdown** - cProfile over one reference-gear run, split
  into the pipeline stages (commit/issue/rename, with the scheduler's
  select and wake peeled out of issue as their own stages) plus the
  hottest individual functions (the specialized gear is one generated
  frame, so stage attribution only exists for the reference gear,
  whose stages are methods).

The default trace is **mcf** on every configuration: it is the suite's
most stall-dominated workload (mispredict rate within noise of gcc's
top rate, plus pointer-chase memory misses), i.e. the cell where dead
cycles - and therefore the event-horizon jump - matter most.

``python -m repro profile [--quick] [--out PATH]`` writes the JSON
record; the CI perf-smoke job archives it and fails on divergence or on
a specialized/reference speedup below its floor (the remaining speed
numbers are informational).
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig, figure4_configs
from repro.core.processor import Processor
from repro.core.stats import SimulationStats
from repro.trace.cache import TRACE_SLACK, default_cache

#: Schema version of the JSON record.
SCHEMA = 1

DEFAULT_BENCHMARK = "mcf"
DEFAULT_MEASURE = 20_000
DEFAULT_WARMUP = 20_000
QUICK_MEASURE = 4_000
QUICK_WARMUP = 4_000
DEFAULT_OUT = "BENCH_core.json"

#: Pipeline-stage attribution for the cProfile breakdown: method name ->
#: (stage label, filename fragment).  ``_commit``/``_issue``/
#: ``_rename_and_dispatch`` are the three top-level phases of the main
#: loop; the scheduler's ``select`` and ``wake`` are nested
#: inside ``_issue`` (and ``wake`` inside ``select``), so their
#: cumulative times are *subtracted out* of their callers below -
#: scheduler work reports as its own stage and the stages partition a
#: run again.
_STAGE_METHODS = {
    "_commit": ("commit", "processor"),
    "_issue": ("issue", "processor"),
    "_rename_and_dispatch": ("rename", "processor"),
    "select": ("select", "issue_queue"),
    "wake": ("wake", "issue_queue"),
}

#: Containment chain for the subtraction: stage -> the stage nested
#: directly inside it.
_NESTED_STAGE = {"issue": "select", "select": "wake"}


def _fingerprint(stats: SimulationStats) -> Tuple:
    """Everything the golden-equivalence check compares across gears."""
    return (stats.summary(),
            list(stats.cluster_allocated),
            list(stats.cluster_issued))


def _timed_run(config: MachineConfig, trace: Sequence,
               measure: int, warmup: int,
               gear: str) -> Tuple[Processor, SimulationStats, float]:
    processor = Processor(config, iter(trace), gear=gear)
    start = time.perf_counter()
    stats = processor.run(measure=measure, warmup=warmup)
    return processor, stats, time.perf_counter() - start


def _stage_breakdown(config: MachineConfig, trace: Sequence,
                     measure: int, warmup: int,
                     top: int = 12) -> Dict:
    """cProfile one reference-gear run and split it into pipeline stages."""
    processor = Processor(config, iter(trace), gear="reference")
    profiler = cProfile.Profile()
    profiler.enable()
    processor.run(measure=measure, warmup=warmup)
    profiler.disable()
    profile_stats = pstats.Stats(profiler)
    total = profile_stats.total_tt
    stages: Dict[str, float] = {}
    hottest: List[Dict] = []
    entries = []
    for (filename, _line, name), (_cc, ncalls, tottime, cumtime,
                                  _callers) in profile_stats.stats.items():
        attribution = _STAGE_METHODS.get(name)
        if attribution is not None and attribution[1] in filename:
            stages[attribution[0]] = cumtime
        entries.append((tottime, ncalls, cumtime, name, filename))
    # Peel nested stages out of their callers so the labels are
    # mutually exclusive (issue excludes select, select excludes wake).
    for outer, inner in _NESTED_STAGE.items():
        if outer in stages and inner in stages:
            stages[outer] -= stages[inner]
    stages = {name: round(seconds, 4) for name, seconds in stages.items()}
    entries.sort(reverse=True)
    for tottime, ncalls, cumtime, name, filename in entries[:top]:
        hottest.append({
            "function": name,
            "calls": ncalls,
            "tottime_s": round(tottime, 4),
            "cumtime_s": round(cumtime, 4),
        })
    return {
        "total_s": round(total, 4),
        "stages_cum_s": stages,
        "hottest": hottest,
    }


def run(
    benchmark: str = DEFAULT_BENCHMARK,
    configs: Optional[Sequence[MachineConfig]] = None,
    measure: Optional[int] = None,
    warmup: Optional[int] = None,
    seed: int = 1,
    quick: bool = False,
    out: Optional[str] = DEFAULT_OUT,
    print_summary: bool = True,
) -> Dict:
    """Profile the core loop and (optionally) write ``BENCH_core.json``.

    Returns the record as a dictionary; ``record["identical"]`` is the
    golden-equivalence verdict over every configuration.  ``out=None``
    skips the file.
    """
    if measure is None:
        measure = QUICK_MEASURE if quick else DEFAULT_MEASURE
    if warmup is None:
        warmup = QUICK_WARMUP if quick else DEFAULT_WARMUP
    configs = list(configs if configs is not None else figure4_configs())

    # Pre-materialise the trace's eager prefix so sim-KIPS measures the
    # core, not the workload generator.  Both gears iterate the one
    # cache entry, so their input streams are identical; only the first
    # run generates the few hundred slack-tail instructions it drains.
    trace = default_cache().get(benchmark, measure + warmup + TRACE_SLACK,
                                seed=seed)

    cells: List[Dict] = []
    all_identical = True
    for config in configs:
        _, ref_stats, ref_seconds = _timed_run(
            config, trace, measure, warmup, gear="reference")
        spec_proc, spec_stats, spec_seconds = _timed_run(
            config, trace, measure, warmup, gear="specialized")
        identical = _fingerprint(ref_stats) == _fingerprint(spec_stats)
        all_identical &= identical
        simulated = spec_stats.committed + warmup
        cells.append({
            "config": config.name,
            "identical": identical,
            "ipc": round(spec_stats.ipc, 4),
            "cycles": spec_stats.cycles,
            "reference_s": round(ref_seconds, 3),
            "specialized_s": round(spec_seconds, 3),
            "reference_kips": round(simulated / ref_seconds / 1000.0, 1)
            if ref_seconds else 0.0,
            "specialized_kips": round(simulated / spec_seconds / 1000.0, 1)
            if spec_seconds else 0.0,
            "specialized_speedup": round(ref_seconds / spec_seconds, 2)
            if spec_seconds else 0.0,
            "specialized_gear": spec_proc.gear,
            "despecializations": spec_proc.despecializations,
            "horizon_jumps": spec_proc.horizon_jumps,
            "cycles_skipped": spec_proc.horizon_cycles_skipped,
        })

    breakdown = _stage_breakdown(configs[0], trace, measure, warmup)
    record = {
        "schema": SCHEMA,
        "benchmark": benchmark,
        "measure": measure,
        "warmup": warmup,
        "seed": seed,
        "quick": quick,
        "identical": all_identical,
        "cells": cells,
        "stage_breakdown": breakdown,
    }
    if out:
        with open(out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if print_summary:
        print(format_record(record, out))
    return record


def format_record(record: Dict, out: Optional[str] = None) -> str:
    lines: List[str] = [
        f"core profile: {record['benchmark']} "
        f"({record['measure']:,} measured / {record['warmup']:,} warm-up"
        f"{', quick' if record['quick'] else ''})",
        f"  {'config':<16s}{'ref KIPS':>10s}"
        f"{'special':>9s}{'s-speed':>9s}  identical",
    ]
    for cell in record["cells"]:
        lines.append(
            f"  {cell['config']:<16s}{cell['reference_kips']:>10.1f}"
            f"{cell['specialized_kips']:>9.1f}"
            f"{cell['specialized_speedup']:>8.2f}x  "
            f"{'yes' if cell['identical'] else 'NO - DIVERGED'}")
    stages = record["stage_breakdown"]["stages_cum_s"]
    if stages:
        split = ", ".join(f"{name} {seconds:.2f}s"
                          for name, seconds in sorted(stages.items()))
        lines.append(f"  stage cumtime: {split}")
    if not record["identical"]:
        lines.append("  GOLDEN EQUIVALENCE FAILED: specialized-gear "
                     "statistics diverge from the reference stepper")
    if out:
        lines.append(f"  wrote {out}")
    return "\n".join(lines)

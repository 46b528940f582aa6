"""CPI-stack driver: ``wsrs stacks`` (markdown + JSON, CI invariant gate).

Runs the six section-5 configurations with observability enabled and
renders the per-config/per-benchmark CPI stacks of
:mod:`repro.obs.cpi` - where the cycles of each machine actually go,
instead of the bare IPC quotient Figure 4 reports.

``--quick`` (the CI perf-smoke cell) additionally re-runs every cell
three ways - observability on under both simulator gears, and
observability off - and fails loudly unless:

* every stack sums *bit-exactly* to the run's total cycles;
* the gear-invariant snapshot view is identical between the reference
  stepper and the specialized gear;
* the observability-off statistics are bit-identical to the
  observability-on statistics (the layer is a pure reader).

Cells fan out over the parallel experiment engine, so a full sweep costs
one simulation's wall-clock per core.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.config import figure4_configs
from repro.experiments.runner import RunResult, RunSpec, execute_many
from repro.obs.cpi import CAUSES
from repro.obs.observer import gear_invariant_view

#: The default benchmark pair: the most memory-bound and the most
#: ILP-friendly integer workloads - the two ends of the stack shapes.
DEFAULT_BENCHMARKS = ("gzip", "mcf")


def _specs(benchmarks: Sequence[str], measure: int, warmup: int,
           seed: int, gear: Optional[str],
           observe: bool) -> List[RunSpec]:
    return [
        RunSpec(config=config, benchmark=benchmark, measure=measure,
                warmup=warmup, seed=seed, gear=gear, observe=observe)
        for benchmark in benchmarks
        for config in figure4_configs()
    ]


def collect(benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
            measure: int = 20_000, warmup: int = 20_000, seed: int = 1,
            workers: Optional[int] = None) -> Dict[str, Dict[str, RunResult]]:
    """Observed runs for every (benchmark, section-5 config) cell."""
    specs = _specs(benchmarks, measure, warmup, seed, gear=None,
                   observe=True)
    results = execute_many(specs, workers=workers)
    table: Dict[str, Dict[str, RunResult]] = {}
    for result in results:
        table.setdefault(result.spec.benchmark,
                         {})[result.spec.config.name] = result
    return table


def render_markdown(table: Dict[str, Dict[str, RunResult]]) -> str:
    """Per-benchmark markdown tables: one row per config, one column per
    cause, cells in percent of total cycles."""
    lines: List[str] = []
    for benchmark in table:
        lines.append(f"### CPI stack - {benchmark}")
        lines.append("")
        lines.append("| configuration | IPC | cycles | "
                     + " | ".join(CAUSES) + " |")
        lines.append("|---|---|---|" + "---|" * len(CAUSES))
        for name, result in table[benchmark].items():
            causes = result.obs["causes"]
            cycles = result.stats.cycles
            cells = [f"{100.0 * causes[cause] / cycles:.1f}%"
                     if cycles else "-" for cause in CAUSES]
            lines.append(f"| {name} | {result.ipc:.3f} | {cycles} | "
                         + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)


def as_json(table: Dict[str, Dict[str, RunResult]]) -> Dict[str, object]:
    return {
        benchmark: {
            name: {
                "ipc": result.ipc,
                "cycles": result.stats.cycles,
                "causes": result.obs["causes"],
                "counters": result.obs["counters"],
                "engine": result.obs["engine"],
            }
            for name, result in row.items()
        }
        for benchmark, row in table.items()
    }


def verify_invariants(benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
                      measure: int = 4_000, warmup: int = 4_000,
                      seed: int = 1,
                      workers: Optional[int] = None) -> List[str]:
    """The acceptance checks, as data: a list of violations (empty = ok)."""
    specialized = _specs(benchmarks, measure, warmup, seed, gear=None,
                         observe=True)
    reference = _specs(benchmarks, measure, warmup, seed,
                       gear="reference", observe=True)
    plain = _specs(benchmarks, measure, warmup, seed, gear=None,
                   observe=False)
    results = execute_many(specialized + reference + plain,
                           workers=workers)
    cells = len(specialized)
    problems: List[str] = []
    for index in range(cells):
        on_spec = results[index]
        on_ref = results[cells + index]
        off = results[2 * cells + index]
        label = (f"{on_spec.spec.benchmark} / "
                 f"{on_spec.spec.config.name}")
        for result, gear in ((on_spec, "specialized"),
                             (on_ref, "reference")):
            total = sum(result.obs["causes"].values())
            if total != result.stats.cycles:
                problems.append(
                    f"{label} [{gear}]: CPI stack sums to {total}, "
                    f"simulated cycles {result.stats.cycles}")
        if (gear_invariant_view(on_spec.obs)
                != gear_invariant_view(on_ref.obs)):
            problems.append(
                f"{label}: observability snapshot differs between the "
                f"reference stepper and the specialized gear")
        if on_spec.stats.summary() != off.stats.summary():
            problems.append(
                f"{label}: statistics with observability on differ from "
                f"the observability-off run (the layer is not neutral)")
    return problems


def run(benchmarks: Optional[Sequence[str]] = None,
        measure: int = 20_000, warmup: int = 20_000, seed: int = 1,
        workers: Optional[int] = None, out_md: Optional[str] = None,
        out_json: Optional[str] = None, quick: bool = False,
        print_table: bool = True) -> int:
    """CLI entry point; returns a process exit code."""
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    if quick:
        measure = min(measure, 4_000)
        warmup = min(warmup, 4_000)
        problems = verify_invariants(benchmarks, measure=measure,
                                     warmup=warmup, seed=seed,
                                     workers=workers)
        for problem in problems:
            print(f"VIOLATION: {problem}")
        if problems:
            return 1
        print(f"stacks --quick: {len(benchmarks) * 6} cells x "
              f"(obs specialized / obs reference / plain) - stacks sum to "
              f"cycles, gears identical, statistics bit-neutral")
    table = collect(benchmarks, measure=measure, warmup=warmup,
                    seed=seed, workers=workers)
    sums_ok = all(
        sum(result.obs["causes"].values()) == result.stats.cycles
        for row in table.values() for result in row.values())
    markdown = render_markdown(table)
    if print_table:
        print(markdown)
    if out_md:
        with open(out_md, "w") as handle:
            handle.write(markdown + "\n")
        print(f"wrote {out_md}")
    if out_json:
        with open(out_json, "w") as handle:
            json.dump(as_json(table), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out_json}")
    if not sums_ok:
        print("VIOLATION: a CPI stack does not sum to its run's cycles")
        return 1
    return 0

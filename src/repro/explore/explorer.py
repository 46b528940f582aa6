"""The explorer driver: enumerate -> gate -> pre-filter -> simulate -> rank.

:func:`explore` is the end-to-end pipeline behind ``wsrs explore`` and
the service's ``explore`` job kind:

1. :func:`repro.explore.lattice.enumerate_lattice` expands the lattice
   and classifies every cell (CFG-* gate, incompatible-axis and
   duplicate detection);
2. :func:`repro.explore.queuing.prefilter_cells` prunes the valid cells
   to the analytically competitive set within the simulation budget;
3. the survivors fan through
   :func:`repro.experiments.runner.execute_many` - every (cell,
   benchmark) pair is an ordinary engine spec, so the trace cache and
   the specialized gear apply unchanged;
4. :func:`frontier_payload` prices each simulated cell with the
   :mod:`repro.cost` proxy, computes measured ED/ED**2*P, and emits the
   Pareto frontier with dominated-point provenance.

Determinism contract: steps 1, 2 and 4 are pure functions of the
lattice spec and knobs, and step 3 is the deterministic simulator - so
the service path (which re-runs 1/2/4 around the pool) produces a
payload bit-identical to a direct CLI run with the same inputs, which
plans once and hands that plan to the payload builder.
``BENCH_explore.json`` is exactly this payload.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.experiments.runner import RunResult, RunSpec, execute_many
from repro.explore.frontier import (
    RANKS,
    FrontierPoint,
    pareto,
    rank_value,
)
from repro.explore.lattice import LatticeCell, LatticeSpec, \
    enumerate_lattice
from repro.explore.queuing import prefilter_cells
from repro.cost.proxy import config_cost
from repro.obs.registry import ObsRegistry

#: Default number of lattice cells granted simulation time.
DEFAULT_BUDGET = 16
#: Default slice lengths: short on purpose - the explorer ranks dozens
#: of configurations, not one; ``--measure`` scales it back up.
DEFAULT_MEASURE = 6_000
DEFAULT_WARMUP = 4_000

#: Version of the payload schema written to BENCH_explore.json.
SCHEMA = 1


def plan(spec: LatticeSpec, budget: int = DEFAULT_BUDGET,
         prefilter: bool = True, rank: str = "ed2p"):
    """Classify the lattice and pick the simulation survivors.

    Returns ``(cells, survivors, pruned_records)``; pure and
    deterministic, so the service can re-plan at payload time and land
    on the identical survivor list.
    """
    if rank not in RANKS:
        raise ExperimentError(f"unknown rank metric {rank!r}; choose "
                              f"from {list(RANKS)}")
    if budget < 1:
        raise ExperimentError(f"simulation budget must be >= 1, "
                              f"got {budget}")
    cells = enumerate_lattice(spec)
    valid = [cell for cell in cells if cell.valid]
    if not valid:
        raise ExperimentError("lattice has no valid cells to explore")
    if prefilter:
        survivors, pruned = prefilter_cells(valid, spec.benchmarks,
                                            budget, rank)
    else:
        survivors, pruned = list(valid), []
    return cells, survivors, pruned


def survivor_specs(spec: LatticeSpec, budget: int = DEFAULT_BUDGET,
                   prefilter: bool = True, rank: str = "ed2p",
                   measure: int = DEFAULT_MEASURE,
                   warmup: int = DEFAULT_WARMUP,
                   seed: int = 1) -> List[RunSpec]:
    """Engine specs for the surviving cells, cell-major then benchmark."""
    _, survivors, _ = plan(spec, budget, prefilter, rank)
    return _specs_for(spec, survivors, measure, warmup, seed)


def _specs_for(spec: LatticeSpec, survivors: Sequence[LatticeCell],
               measure: int, warmup: int, seed: int) -> List[RunSpec]:
    return [
        RunSpec(config=cell.config, benchmark=benchmark, measure=measure,
                warmup=warmup, seed=seed)
        for cell in survivors
        for benchmark in spec.benchmarks
    ]


def _geomean(values: Sequence[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def frontier_payload(spec: LatticeSpec, budget: int, prefilter: bool,
                     rank: str, measure: int, warmup: int, seed: int,
                     results: Sequence[RunResult],
                     planned: Optional[tuple] = None) -> Dict:
    """Rank simulated survivors and assemble the full explore record.

    ``results`` must be the output of running :func:`survivor_specs`
    (any execution path - direct, pooled, or the service scheduler);
    everything else is recomputed deterministically from the inputs, so
    two calls with the same arguments return bit-identical payloads.
    ``planned`` is the :func:`plan` of the same inputs when the caller
    already holds it; ``None`` plans again.
    """
    if planned is None:
        planned = plan(spec, budget, prefilter, rank)
    cells, survivors, pruned = planned
    expected = len(survivors) * len(spec.benchmarks)
    if len(results) != expected:
        raise ExperimentError(
            f"explore expected {expected} cell results "
            f"({len(survivors)} survivors x {len(spec.benchmarks)} "
            f"benchmarks), got {len(results)}")

    by_cell: Dict[str, Dict[str, RunResult]] = {}
    for index, result in enumerate(results):
        cell = survivors[index // len(spec.benchmarks)]
        by_cell.setdefault(cell.name, {})[result.spec.benchmark] = result

    rows: List[Dict] = []
    points: List[FrontierPoint] = []
    for cell in survivors:
        runs = by_cell[cell.name]
        ipcs = [runs[benchmark].stats.ipc
                for benchmark in spec.benchmarks]
        delay = 1.0 / max(1e-9, _geomean(ipcs))
        cost = config_cost(cell.config)
        energy_pi = cost.energy_nj_per_cycle * delay
        point = FrontierPoint(name=cell.name,
                              energy_per_instruction=energy_pi,
                              delay=delay)
        points.append(point)
        rows.append({
            "cell": cell.name,
            "params": dict(cell.params),
            "per_benchmark": {
                benchmark: {
                    "ipc": round(runs[benchmark].stats.ipc, 6),
                    "cycles": runs[benchmark].stats.cycles,
                    "committed": runs[benchmark].stats.committed,
                } for benchmark in spec.benchmarks},
            "ipc_geomean": round(1.0 / delay, 6),
            "delay_cpi": round(delay, 6),
            "energy_nj_per_cycle": round(cost.energy_nj_per_cycle, 4),
            "energy_per_instruction": round(energy_pi, 6),
            "ed": round(rank_value(point, "ed"), 6),
            "ed2p": round(rank_value(point, "ed2p"), 6),
        })

    frontier_names, dominated_by = pareto(points)
    for row in rows:
        row["frontier"] = row["cell"] in frontier_names
        row["dominated_by"] = dominated_by.get(row["cell"])
    order = {point.name: rank_value(point, rank) for point in points}
    rows.sort(key=lambda row: (order[row["cell"]], row["cell"]))

    status_counts = {"incompatible": 0, "invalid": 0, "duplicate": 0}
    rejected = []
    for cell in cells:
        if cell.status in status_counts:
            status_counts[cell.status] += 1
            rejected.append(cell.as_dict())
    return {
        "schema": SCHEMA,
        "kind": "explore",
        "lattice": spec.as_dict(),
        "budget": budget,
        "prefilter": prefilter,
        "rank": rank,
        "measure": measure,
        "warmup": warmup,
        "seed": seed,
        "counts": {
            "cells": len(cells),
            "incompatible": status_counts["incompatible"],
            "invalid": status_counts["invalid"],
            "duplicate": status_counts["duplicate"],
            "valid": (len(cells) - status_counts["incompatible"]
                      - status_counts["invalid"]
                      - status_counts["duplicate"]),
            "pruned": len(pruned),
            "simulated": len(survivors),
            "frontier": len(frontier_names),
        },
        "rejected": rejected,
        "pruned": pruned,
        "results": rows,
        "frontier": [row["cell"] for row in rows if row["frontier"]],
    }


def explore(spec: LatticeSpec, budget: int = DEFAULT_BUDGET,
            prefilter: bool = True, rank: str = "ed2p",
            measure: int = DEFAULT_MEASURE, warmup: int = DEFAULT_WARMUP,
            seed: int = 1, workers: Optional[int] = None,
            registry: Optional[ObsRegistry] = None,
            progress: Optional[Callable[[RunResult], None]] = None,
            ) -> Dict:
    """Run the full explore pipeline and return the payload dict."""
    planned = plan(spec, budget, prefilter, rank)
    specs = _specs_for(spec, planned[1], measure, warmup, seed)
    results = execute_many(specs, workers=workers, progress=progress)
    payload = frontier_payload(spec, budget, prefilter, rank, measure,
                               warmup, seed, results, planned)
    if registry is not None:
        count_explore(registry, payload)
    return payload


def count_explore(registry: ObsRegistry, payload: Dict) -> None:
    """Record one finished exploration in an observability registry."""
    counts = payload["counts"]
    registry.count("explore_runs_total")
    registry.count("explore_cells_total", counts["cells"])
    registry.count("explore_rejected_cells_total",
                   counts["incompatible"] + counts["invalid"]
                   + counts["duplicate"])
    registry.count("explore_pruned_cells_total", counts["pruned"])
    registry.count("explore_simulated_cells_total", counts["simulated"])
    registry.count("explore_frontier_cells_total", counts["frontier"])


def save_payload(payload: Dict, path: str) -> None:
    """Write the explore record (``BENCH_explore.json``)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")

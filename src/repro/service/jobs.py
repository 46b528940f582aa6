"""Job model of the simulation service.

A *job* is one client-submitted unit of work: a single simulation cell
(``simulate``), a (benchmark x configuration) sweep (``matrix``), an
observed run returning its CPI stack alongside the statistics
(``stacks``), or a design-space exploration returning the energy-delay
Pareto frontier of a config lattice (``explore``,
:mod:`repro.explore`).  Requests arrive as plain JSON;
:func:`parse_request` validates them against the shipped benchmark
profiles and section-5 configurations (for ``explore``: against the
lattice-spec schema, with the survivor count planned at admission) and
clamps the slice lengths, so admission control can reject malformed or
abusive work before it ever reaches the pool.

**Idempotency keys.**  Every request canonicalises to the same cell
tuples the trace cache keys on - ``(profile, trace_length, seed,
GENERATOR_VERSION)`` via :func:`repro.trace.cache.trace_key` - extended
with the configuration name and measurement window.  :func:`job_key`
hashes that canonical form, so two requests get the same key exactly
when they would produce bit-identical results: the scheduler uses the
key to fold duplicate in-flight submissions into one run and to
short-circuit completed work out of the result store, and bumping the
trace generator version automatically invalidates every stored result.

The simulator is deterministic, so a job's result is a pure function of
its key; everything in a result payload is plain JSON data (summaries
from :meth:`repro.core.stats.SimulationStats.summary`, CPI-stack causes
when observed) and round-trips through the HTTP layer unchanged.
"""

from __future__ import annotations

import hashlib
import json
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import config_by_name, figure4_configs
from repro.errors import ConfigError
from repro.experiments.runner import RunResult, RunSpec
from repro.trace.cache import trace_key
from repro.trace.profiles import PROFILES

#: Supported job kinds.
KINDS = ("simulate", "matrix", "stacks", "explore")

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Admission-side abuse bounds: the largest slice and sweep one job may
#: request.  Oversized work belongs in several jobs (or a bigger knob at
#: deploy time), not one queue-hogging request.
MAX_MEASURE = 2_000_000
MAX_WARMUP = 2_000_000
MAX_CELLS = 64

#: Priority range; lower runs sooner.  5 is the default lane.
MIN_PRIORITY, DEFAULT_PRIORITY, MAX_PRIORITY = 0, 5, 9


class JobValidationError(ValueError):
    """A submitted job payload failed validation (HTTP 400)."""


@dataclass(frozen=True)
class JobRequest:
    """A validated, canonical job request."""

    kind: str
    benchmarks: Tuple[str, ...]
    configs: Tuple[str, ...]
    measure: int
    warmup: int
    seed: int
    observe: bool
    priority: int
    #: ``explore`` only: the lattice spec as canonical JSON text (kept
    #: as a string so the request stays hashable), the simulation
    #: budget, the pre-filter switch and the rank metric.
    lattice: Optional[str] = None
    budget: int = 0
    prefilter: bool = True
    rank: str = "ed2p"
    #: ``explore`` only: simulated cells, planned at admission.
    planned_cells: int = 0

    @property
    def num_cells(self) -> int:
        if self.kind == "explore":
            return self.planned_cells
        return len(self.benchmarks) * len(self.configs)


def _require_int(payload: Dict, name: str, default: int,
                 low: int, high: int) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobValidationError(f"{name!r} must be an integer")
    if not low <= value <= high:
        raise JobValidationError(
            f"{name!r} must be in [{low}, {high}], got {value}")
    return value


def _require_names(payload: Dict, name: str, default: List[str]) -> List[str]:
    value = payload.get(name, default)
    if isinstance(value, str):
        value = [value]
    if (not isinstance(value, list) or not value
            or not all(isinstance(item, str) for item in value)):
        raise JobValidationError(f"{name!r} must be a non-empty name list")
    return value


def parse_request(payload: object) -> JobRequest:
    """Validate a JSON job payload into a canonical :class:`JobRequest`.

    Raises :class:`JobValidationError` with a client-presentable message
    on any defect; never touches the simulator.
    """
    if not isinstance(payload, dict):
        raise JobValidationError("job payload must be a JSON object")
    kind = payload.get("kind", "simulate")
    if kind not in KINDS:
        raise JobValidationError(
            f"unknown job kind {kind!r}; choose from {sorted(KINDS)}")
    if kind == "explore":
        return _parse_explore(payload)

    all_configs = [config.name for config in figure4_configs()]
    if kind == "simulate":
        benchmarks = _require_names(payload, "benchmarks",
                                    payload.get("benchmark") and
                                    [payload["benchmark"]] or [])
        configs = _require_names(payload, "configs",
                                 [payload.get("config", "WSRS RC S 512")])
        if len(benchmarks) != 1 or len(configs) != 1:
            raise JobValidationError(
                "'simulate' takes exactly one benchmark and one config; "
                "use kind='matrix' for sweeps")
    else:
        benchmarks = _require_names(payload, "benchmarks", ["gzip"])
        configs = _require_names(payload, "configs", all_configs)

    for benchmark in benchmarks:
        if benchmark not in PROFILES:
            raise JobValidationError(
                f"unknown benchmark {benchmark!r}; choose from "
                f"{sorted(PROFILES)}")
    for name in configs:
        try:
            config_by_name(name)
        except ConfigError as exc:
            raise JobValidationError(str(exc)) from None
    if len(benchmarks) * len(configs) > MAX_CELLS:
        raise JobValidationError(
            f"request expands to {len(benchmarks) * len(configs)} cells; "
            f"the per-job cap is {MAX_CELLS}")

    measure = _require_int(payload, "measure", 20_000, 1, MAX_MEASURE)
    warmup = _require_int(payload, "warmup", 0, 0, MAX_WARMUP)
    seed = _require_int(payload, "seed", 1, 0, 2 ** 31 - 1)
    priority = _require_int(payload, "priority", DEFAULT_PRIORITY,
                            MIN_PRIORITY, MAX_PRIORITY)
    observe = payload.get("observe", kind == "stacks")
    if not isinstance(observe, bool):
        raise JobValidationError(
            f"observe must be a JSON boolean, got {observe!r}")
    if kind == "stacks":
        observe = True  # the CPI stack *is* the stacks result
    return JobRequest(kind=kind, benchmarks=tuple(benchmarks),
                      configs=tuple(configs), measure=measure,
                      warmup=warmup, seed=seed, observe=observe,
                      priority=priority)


def _parse_explore(payload: Dict) -> JobRequest:
    """Validate an ``explore`` job: lattice schema, budget, rank.

    The survivor set is *planned* here (enumeration + pre-filter are
    pure functions, no simulation), so an exploration whose simulated
    cell count would exceed :data:`MAX_CELLS` is rejected at admission
    like any other oversized sweep.
    """
    from repro.errors import ExperimentError
    from repro.explore.explorer import (
        DEFAULT_BUDGET,
        DEFAULT_MEASURE,
        DEFAULT_WARMUP,
        plan,
    )
    from repro.explore.frontier import RANKS
    from repro.explore.lattice import LatticeError, LatticeSpec

    try:
        spec = LatticeSpec.from_dict(payload.get("lattice"))
    except LatticeError as exc:
        raise JobValidationError(str(exc)) from None
    budget = _require_int(payload, "budget", DEFAULT_BUDGET, 1, MAX_CELLS)
    prefilter = payload.get("prefilter", True)
    if not isinstance(prefilter, bool):
        raise JobValidationError(
            f"prefilter must be a JSON boolean, got {prefilter!r}")
    rank = payload.get("rank", "ed2p")
    if rank not in RANKS:
        raise JobValidationError(
            f"unknown rank metric {rank!r}; choose from {list(RANKS)}")
    measure = _require_int(payload, "measure", DEFAULT_MEASURE,
                           1, MAX_MEASURE)
    warmup = _require_int(payload, "warmup", DEFAULT_WARMUP,
                          0, MAX_WARMUP)
    seed = _require_int(payload, "seed", 1, 0, 2 ** 31 - 1)
    priority = _require_int(payload, "priority", DEFAULT_PRIORITY,
                            MIN_PRIORITY, MAX_PRIORITY)
    try:
        _, survivors, _ = plan(spec, budget, prefilter, rank)
    except ExperimentError as exc:
        raise JobValidationError(str(exc)) from None
    planned = len(survivors) * len(spec.benchmarks)
    if planned > MAX_CELLS:
        raise JobValidationError(
            f"exploration expands to {planned} simulated cells "
            f"({len(survivors)} survivors x {len(spec.benchmarks)} "
            f"benchmarks); the per-job cap is {MAX_CELLS}")
    lattice = json.dumps(spec.as_dict(), sort_keys=True,
                         separators=(",", ":"))
    return JobRequest(kind="explore", benchmarks=spec.benchmarks,
                      configs=(), measure=measure, warmup=warmup,
                      seed=seed, observe=False, priority=priority,
                      lattice=lattice, budget=budget, prefilter=prefilter,
                      rank=rank, planned_cells=planned)


def _explore_spec(request: JobRequest):
    from repro.explore.lattice import LatticeSpec

    assert request.lattice is not None
    return LatticeSpec.from_dict(json.loads(request.lattice))


def cell_specs(request: JobRequest) -> List[RunSpec]:
    """The request's cells as engine specs, row-major like a matrix
    (``explore``: the pre-filter's survivors, cell-major)."""
    if request.kind == "explore":
        from repro.explore.explorer import survivor_specs

        return survivor_specs(_explore_spec(request), request.budget,
                              request.prefilter, request.rank,
                              request.measure, request.warmup,
                              request.seed)
    return [
        RunSpec(config=config_by_name(name), benchmark=benchmark,
                measure=request.measure, warmup=request.warmup,
                seed=request.seed, observe=request.observe)
        for benchmark in request.benchmarks
        for name in request.configs
    ]


def canonical_form(request: JobRequest) -> Dict:
    """The key-defining canonical shape of a request.

    Per cell this embeds the trace cache's own workload key
    (``trace_key``: profile, materialised length, seed, generator
    version), so a job key goes stale exactly when the cached traces it
    would consume do.
    """
    cells = []
    for spec in cell_specs(request):
        workload = trace_key(spec.benchmark, spec.trace_length, spec.seed)
        cells.append({
            "workload": list(workload),
            "config": spec.config.name,
            "measure": spec.measure,
            "warmup": spec.warmup,
            "observe": spec.observe,
        })
    form = {"kind": request.kind, "cells": cells}
    if request.kind == "explore":
        # The survivor cells alone don't pin down the exploration: the
        # same survivors can come from different lattices/knobs, and
        # the payload re-ranks from these inputs.
        form["lattice"] = json.loads(request.lattice)
        form["budget"] = request.budget
        form["prefilter"] = request.prefilter
        form["rank"] = request.rank
    return form


def request_payload(request: JobRequest) -> Dict:
    """Reconstruct the JSON submission body of a validated request.

    A fleet coordinator leases jobs out in this *canonical* form, so a
    worker derives the same idempotency key the coordinator admitted
    the job under, and its local result cache answers a repeat that
    lands on it.
    """
    if request.kind == "explore":
        assert request.lattice is not None
        return {"kind": "explore",
                "lattice": json.loads(request.lattice),
                "budget": request.budget,
                "prefilter": request.prefilter,
                "rank": request.rank,
                "measure": request.measure, "warmup": request.warmup,
                "seed": request.seed, "priority": request.priority}
    return {"kind": request.kind,
            "benchmarks": list(request.benchmarks),
            "configs": list(request.configs),
            "measure": request.measure, "warmup": request.warmup,
            "seed": request.seed, "observe": request.observe,
            "priority": request.priority}


def job_key(request: JobRequest) -> str:
    """The idempotency key: a digest of the canonical request form."""
    canonical = json.dumps(canonical_form(request), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def new_job_id() -> str:
    return f"j{uuid.uuid4().hex[:12]}"


def cell_payload(result: RunResult) -> Dict:
    """One cell's plain-JSON result record."""
    payload: Dict = {
        "benchmark": result.spec.benchmark,
        "config": result.spec.config.name,
        "summary": result.stats.summary(),
    }
    if result.obs is not None:
        payload["causes"] = result.obs["causes"]
    return payload


def job_payload(request: JobRequest, results: List[RunResult]) -> Dict:
    """The full result payload stored and served for a finished job."""
    if request.kind == "explore":
        from repro.explore.explorer import frontier_payload

        return frontier_payload(_explore_spec(request), request.budget,
                                request.prefilter, request.rank,
                                request.measure, request.warmup,
                                request.seed, results)
    cells = [cell_payload(result) for result in results]
    payload: Dict = {"kind": request.kind, "cells": cells}
    if request.kind == "matrix":
        table: Dict[str, Dict[str, Dict]] = {}
        for cell in cells:
            table.setdefault(cell["benchmark"],
                             {})[cell["config"]] = cell["summary"]
        payload["table"] = table
    return payload


@dataclass
class Job:
    """One tracked job: request + lifecycle + result."""

    id: str
    key: str
    request: JobRequest
    client: str
    state: str = QUEUED
    attempts: int = 0
    #: Extra submissions folded into this job by in-flight dedup.
    deduped: int = 0
    cached: bool = False
    cancel_requested: bool = False
    error: Optional[str] = None
    result: Optional[Dict] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Wall-clock job latency (ms), set at the terminal transition.
    latency_ms: Optional[float] = None
    notes: List[str] = field(default_factory=list)

    @property
    def priority(self) -> int:
        return self.request.priority

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_dict(self, include_result: bool = True) -> Dict:
        record: Dict = {
            "id": self.id,
            "key": self.key,
            "kind": self.request.kind,
            "state": self.state,
            "client": self.client,
            "priority": self.priority,
            "attempts": self.attempts,
            "deduped": self.deduped,
            "cached": self.cached,
            "cancel_requested": self.cancel_requested,
            "cells": self.request.num_cells,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "latency_ms": self.latency_ms,
            "error": self.error,
            "notes": list(self.notes),
        }
        if include_result and self.result is not None:
            record["result"] = self.result
        return record

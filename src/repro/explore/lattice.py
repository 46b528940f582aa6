"""The explorer's config lattice: axes, enumeration, CFG-* gating.

A :class:`LatticeSpec` is a JSON-able cross product of design axes:

=====================  ==================================================
``specializations``    ``none`` / ``ws`` / ``wsrs`` (section 2/3)
``clusters``           cluster counts (2-way clusters, section 4.1)
``registers``          *integer registers per subset*; the physical total
                       is ``registers * clusters`` for every
                       specialization, so cells are compared at equal
                       register budgets (FP gets half, as in section 5)
``widths``             front-end/commit width
``steerings``          allocation policy (``round_robin`` for the
                       unspecialized/WS machines, ``random_commutative``
                       / ``random_monadic`` / ``mapped_random`` for WSRS)
``deadlocks``          ``auto`` (policy ``none`` when the section 2.3
                       sizing rule proves deadlock impossible, register
                       ``moves`` otherwise) or forced ``moves``
=====================  ==================================================

Enumeration classifies every cell exactly once:

* ``incompatible`` - the steering axis does not apply to the
  specialization (round-robin cannot honour a read-specialization
  mapping; the WSRS policies need one), or ``moves`` was forced on a
  machine with no subsets to deadlock.  These are lattice-level
  rejections, recorded with a reason.
* ``invalid`` - the built config fails ``MachineConfig.validate`` or
  any ``CFG-*`` rule of :mod:`repro.verify.rules`.  The cell keeps the
  full rule-tagged violation list as provenance (e.g. a 2-cluster WSRS
  cell steered by the 4-cluster RC policy dies with the ``CFG-FIELD``
  message demanding ``mapped_random``).
* ``duplicate`` - structurally identical to an earlier valid cell
  (e.g. ``auto`` resolving to the same ``moves`` policy an explicit
  ``moves`` cell names); points at the cell that is kept.
* ``valid`` - carries a validated :class:`~repro.config.MachineConfig`.

Everything is deterministic: cells come out in axis-major order and the
canonical dict form is what the service hashes into job keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import DEADLOCK_MOVES, ClusterConfig, MachineConfig
from repro.errors import ConfigError
from repro.trace.profiles import PROFILES
from repro.verify.rules import check_config

#: Default axes: 3 * 2 * 4 * 2 * 4 * 2 = 384 cells.
DEFAULT_SPECIALIZATIONS = ("none", "ws", "wsrs")
DEFAULT_CLUSTERS = (2, 4)
DEFAULT_REGISTERS = (64, 81, 96, 128)
DEFAULT_WIDTHS = (4, 8)
DEFAULT_STEERINGS = ("round_robin", "random_commutative",
                     "random_monadic", "mapped_random")
DEFAULT_DEADLOCKS = ("auto", "moves")
DEFAULT_BENCHMARKS = ("gzip", "mcf")

#: Steering policies that honour a WSRS read-specialization mapping.
_WSRS_STEERINGS = ("random_commutative", "random_monadic", "mapped_random")

#: Short axis tags used in cell names.
_STEERING_TAGS = {"round_robin": "rr", "random_commutative": "rc",
                  "random_monadic": "rm", "mapped_random": "mr"}

#: Minimum misprediction penalty per specialization (section 5.2.1: WS
#: saves one register-read stage; WSRS cells use renaming
#: implementation 1, which the paper prices at the same 16 cycles - +1
#: stage before rename, -2 on register read.  The section-5 factories
#: use implementation 2 at 18 cycles; the paper reports the two as
#: indistinguishable, and implementation 1 keeps the lattice's
#: fixed-clock delay axis from charging WSRS twice for a pipeline the
#: complexity model already prices).  The specialized gear runs either
#: implementation, so the choice costs no simulation speed.
_PENALTIES = {"none": 17, "ws": 16, "wsrs": 16}
_RENAME_IMPLS = {"none": 2, "ws": 2, "wsrs": 1}


class LatticeError(ConfigError):
    """A lattice specification is malformed."""


@dataclass(frozen=True)
class LatticeSpec:
    """One JSON-able design-space lattice."""

    specializations: Tuple[str, ...] = DEFAULT_SPECIALIZATIONS
    clusters: Tuple[int, ...] = DEFAULT_CLUSTERS
    registers: Tuple[int, ...] = DEFAULT_REGISTERS
    widths: Tuple[int, ...] = DEFAULT_WIDTHS
    steerings: Tuple[str, ...] = DEFAULT_STEERINGS
    deadlocks: Tuple[str, ...] = DEFAULT_DEADLOCKS
    benchmarks: Tuple[str, ...] = DEFAULT_BENCHMARKS

    @property
    def num_cells(self) -> int:
        return (len(self.specializations) * len(self.clusters)
                * len(self.registers) * len(self.widths)
                * len(self.steerings) * len(self.deadlocks))

    def validate(self) -> None:
        axes = (
            ("specializations", self.specializations, str,
             ("none", "ws", "wsrs")),
            ("clusters", self.clusters, int, None),
            ("registers", self.registers, int, None),
            ("widths", self.widths, int, None),
            ("steerings", self.steerings, str, tuple(_STEERING_TAGS)),
            ("deadlocks", self.deadlocks, str, ("auto", "moves")),
            ("benchmarks", self.benchmarks, str, tuple(PROFILES)),
        )
        for name, values, kind, allowed in axes:
            if not isinstance(values, tuple) or not values:
                raise LatticeError(f"lattice axis {name!r} must be a "
                                   f"non-empty list")
            if len(set(values)) != len(values):
                raise LatticeError(f"lattice axis {name!r} repeats values")
            for value in values:
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise LatticeError(
                        f"lattice axis {name!r}: {value!r} is not "
                        f"{kind.__name__}")
                if allowed is not None and value not in allowed:
                    raise LatticeError(
                        f"lattice axis {name!r}: unknown value {value!r}; "
                        f"choose from {sorted(allowed)}")
        for name, low in (("clusters", 1), ("registers", 2), ("widths", 1)):
            for value in getattr(self, name):
                if value < low:
                    raise LatticeError(
                        f"lattice axis {name!r}: {value} < minimum {low}")

    @classmethod
    def from_dict(cls, payload: object) -> "LatticeSpec":
        """Build and validate a spec from a plain JSON object.

        Missing axes take the defaults; unknown keys are rejected so a
        typoed axis name cannot silently enumerate the default lattice.
        """
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            raise LatticeError("lattice spec must be a JSON object")
        known = {"specializations", "clusters", "registers", "widths",
                 "steerings", "deadlocks", "benchmarks"}
        unknown = set(payload) - known
        if unknown:
            raise LatticeError(f"unknown lattice key(s) "
                               f"{sorted(unknown)}; known: {sorted(known)}")
        kwargs = {}
        for name in known:
            if name in payload:
                values = payload[name]
                if not isinstance(values, (list, tuple)):
                    raise LatticeError(f"lattice axis {name!r} must be "
                                       f"a list")
                kwargs[name] = tuple(values)
        spec = cls(**kwargs)
        spec.validate()
        return spec

    def as_dict(self) -> Dict[str, list]:
        """The canonical JSON form (axis order fixed, values as given)."""
        return {
            "specializations": list(self.specializations),
            "clusters": list(self.clusters),
            "registers": list(self.registers),
            "widths": list(self.widths),
            "steerings": list(self.steerings),
            "deadlocks": list(self.deadlocks),
            "benchmarks": list(self.benchmarks),
        }


@dataclass(frozen=True)
class LatticeCell:
    """One point of the lattice, classified."""

    name: str
    params: Tuple[Tuple[str, object], ...]
    status: str  # "valid" | "incompatible" | "invalid" | "duplicate"
    config: Optional[MachineConfig] = None
    #: Rejection provenance: rule-tagged violation messages for
    #: ``invalid`` cells, the human reason otherwise.
    provenance: Tuple[str, ...] = ()
    duplicate_of: Optional[str] = None

    @property
    def valid(self) -> bool:
        return self.status == "valid"

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "cell": self.name,
            "params": dict(self.params),
            "status": self.status,
        }
        if self.provenance:
            record["provenance"] = list(self.provenance)
        if self.duplicate_of is not None:
            record["duplicate_of"] = self.duplicate_of
        return record


def cell_name(spec_kind: str, clusters: int, registers: int, width: int,
              steering: str, deadlock: str) -> str:
    return (f"{spec_kind}-c{clusters}-r{registers}-w{width}"
            f"-{_STEERING_TAGS[steering]}-{deadlock}")


def _compatible(spec_kind: str, steering: str,
                deadlock: str) -> Optional[str]:
    """None when the axes combine, else the incompatibility reason."""
    if spec_kind == "wsrs":
        if steering not in _WSRS_STEERINGS:
            return (f"steering {steering!r} cannot honour a "
                    f"read-specialization mapping; WSRS needs one of "
                    f"{sorted(_WSRS_STEERINGS)}")
        return None
    if steering != "round_robin":
        return (f"steering {steering!r} allocates over a WSRS mapping; "
                f"{spec_kind!r} machines steer round-robin")
    if spec_kind == "none" and deadlock == "moves":
        return ("an unspecialized file has no register subsets, so the "
                "'moves' deadlock workaround does not apply")
    return None


def build_config(spec_kind: str, clusters: int, registers: int, width: int,
                 steering: str, deadlock: str) -> MachineConfig:
    """The machine a lattice cell describes (may fail validation).

    Conventions match the section-5 factories of :mod:`repro.config`:
    the integer physical total is ``registers * clusters`` regardless of
    specialization (so cells compare at equal budgets), FP gets half,
    the ROB covers the per-cluster windows, and the misprediction
    penalty follows the specialization's pipeline depth.
    """
    cluster = ClusterConfig()
    config = MachineConfig(
        name=cell_name(spec_kind, clusters, registers, width, steering,
                       deadlock),
        num_clusters=clusters,
        front_width=width,
        commit_width=width,
        rob_size=cluster.max_inflight * clusters,
        cluster=cluster,
        specialization=spec_kind,
        rename_impl=_RENAME_IMPLS[spec_kind],
        allocation_policy=steering,
        int_physical_registers=registers * clusters,
        fp_physical_registers=(registers // 2) * clusters,
        mispredict_penalty=_PENALTIES[spec_kind],
    )
    # "auto" keeps policy none iff the sizing rule proves safety.
    if deadlock == "moves" or not config.deadlock_free:
        config = config.with_changes(deadlock_policy=DEADLOCK_MOVES)
    return config


def _structural_key(config: MachineConfig) -> Tuple:
    """The simulation key plus the declared deadlock policy: a forced
    ``moves`` cell stays its own design point even where it simulates
    like its ``auto`` twin."""
    return config.simulation_key, config.deadlock_policy


def enumerate_lattice(spec: LatticeSpec) -> List[LatticeCell]:
    """Every cell of the lattice, classified, in axis-major order."""
    spec.validate()
    cells: List[LatticeCell] = []
    seen: Dict[Tuple, str] = {}
    for kind in spec.specializations:
        for clusters in spec.clusters:
            for registers in spec.registers:
                for width in spec.widths:
                    for steering in spec.steerings:
                        for deadlock in spec.deadlocks:
                            cells.append(_classify(
                                kind, clusters, registers, width,
                                steering, deadlock, seen))
    return cells


def _classify(kind: str, clusters: int, registers: int, width: int,
              steering: str, deadlock: str,
              seen: Dict[Tuple, str]) -> LatticeCell:
    name = cell_name(kind, clusters, registers, width, steering, deadlock)
    params = (("specialization", kind), ("clusters", clusters),
              ("registers", registers), ("width", width),
              ("steering", steering), ("deadlock", deadlock))
    reason = _compatible(kind, steering, deadlock)
    if reason is not None:
        return LatticeCell(name=name, params=params,
                           status="incompatible", provenance=(reason,))
    try:
        config = build_config(kind, clusters, registers, width, steering,
                              deadlock)
    except ConfigError as exc:
        return LatticeCell(name=name, params=params, status="invalid",
                           provenance=(f"[CFG-FIELD] {exc}",))
    violations = check_config(config)
    if violations:
        return LatticeCell(
            name=name, params=params, status="invalid",
            provenance=tuple(f"[{v.rule}] {v.message}"
                             for v in violations))
    key = _structural_key(config)
    kept = seen.get(key)
    if kept is not None:
        return LatticeCell(name=name, params=params, status="duplicate",
                           provenance=(f"structurally identical to "
                                       f"{kept}",),
                           duplicate_of=kept)
    seen[key] = name
    return LatticeCell(name=name, params=params, status="valid",
                       config=config)

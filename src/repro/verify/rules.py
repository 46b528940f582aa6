"""Whole-machine static configuration rules.

``MachineConfig.validate`` checks individual fields; the rules here check
the *structural* invariants the paper's claims rest on, across fields:

* the write-specialization map is a partition of each physical file -
  under WS/WSRS every register subset is written by exactly one cluster
  and the subsets tile the file with no gap or overlap (Figure 2a);
* the read-connectivity matrix matches Figure 3 - under WSRS each subset
  is read-connected, per operand port, to exactly half the clusters of
  the 4-cluster machine (2 of 4), and the mapping covers every operand
  subset pair; without read specialization every subset is readable by
  all clusters;
* the port-count arithmetic agrees with :mod:`repro.cost.complexity` -
  the result buses one operand port monitors under the mapping equal the
  cost model's ``visible_result_buses``;
* ``deadlock_policy="none"`` is only accepted when subset sizes provably
  rule the section 2.3 deadlock out (strictly more physical registers
  per subset than architected registers in the class).

Rules live in a registry keyed by a stable rule id so callers (CLI,
sanitizer, CI) can report and selectively waive them::

    from repro.verify.rules import check_config, verify_config

    violations = check_config(config)   # -> List[RuleViolation]
    verify_config(config)               # raises VerificationError
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

from repro.config import DEADLOCK_NONE, MachineConfig
from repro.cost.complexity import (
    RESULTS_PER_CLUSTER,
    result_buses,
    visible_result_buses,
    wakeup_comparators,
)
from repro.errors import ConfigError, CostModelError, VerificationError


@dataclass(frozen=True)
class RuleViolation:
    """One broken configuration invariant."""

    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


RuleFunc = Callable[[MachineConfig], Iterator[str]]


@dataclass(frozen=True)
class Rule:
    """A registered whole-config invariant check."""

    rule_id: str
    title: str
    func: RuleFunc


_REGISTRY: Dict[str, Rule] = {}


def rule(rule_id: str, title: str) -> Callable[[RuleFunc], RuleFunc]:
    """Register a generator of violation messages under ``rule_id``."""
    def decorator(func: RuleFunc) -> RuleFunc:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _REGISTRY[rule_id] = Rule(rule_id, title, func)
        return func
    return decorator


def all_rules() -> List[Rule]:
    """Every registered rule, in rule-id order."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def _register_classes(config: MachineConfig):
    """(label, physical total, logical count) for both register files."""
    return (
        ("int", config.int_physical_registers, config.int_logical_registers),
        ("fp", config.fp_physical_registers, config.fp_logical_registers),
    )


@rule("CFG-WRITE-PARTITION",
      "write-specialization map partitions each physical file")
def _check_write_partition(config: MachineConfig) -> Iterator[str]:
    num_subsets = config.num_subsets
    if config.uses_write_specialization:
        if num_subsets != config.num_clusters:
            yield (f"write specialization needs one subset per cluster, "
                   f"got {num_subsets} subsets for "
                   f"{config.num_clusters} clusters")
            return
    elif num_subsets != 1:
        yield (f"a non-specialized file must be monolithic, got "
               f"{num_subsets} subsets")
        return
    for label, total, _ in _register_classes(config):
        subset_size = total // num_subsets
        if subset_size * num_subsets != total:
            yield (f"{label} file of {total} registers does not split "
                   f"into {num_subsets} equal subsets")
            continue
        # Cluster c writes registers [c*size, (c+1)*size); the ranges must
        # tile [0, total) exactly - each register written by one cluster.
        covered = 0
        previous_end = 0
        for writer in range(num_subsets):
            low = writer * subset_size
            high = low + subset_size
            if low != previous_end:
                yield (f"{label} subset {writer} starts at {low}, "
                       f"leaving [{previous_end}, {low}) unwritable")
            previous_end = high
            covered += high - low
        if covered != total or previous_end != total:
            yield (f"{label} write map covers {covered} of {total} "
                   f"registers")


@rule("CFG-READ-CONNECTIVITY",
      "read-connectivity matrix matches Figure 3 / the N-cluster mapping")
def _check_read_connectivity(config: MachineConfig) -> Iterator[str]:
    n = config.num_clusters
    if not config.uses_read_specialization:
        # WS / conventional machines: every subset is readable by every
        # cluster through both ports (n readers per subset).  That is
        # implicit in having no read restriction; the only structural
        # requirement is the subset count checked by CFG-WRITE-PARTITION.
        return
    from repro.extensions.general_wsrs import make_mapping

    try:
        mapping = make_mapping(n)
    except ConfigError as exc:
        yield f"no read-specialization mapping for {n} clusters: {exc}"
        return
    # Coverage: every operand subset pair leaves at least one legal
    # cluster (WsrsMapping enforces this at construction; re-check so a
    # future mapping class cannot silently drop the guarantee).
    for first in range(n):
        for second in range(n):
            if not mapping.clusters_for(first, second):
                yield (f"operand subsets ({first}, {second}) have no "
                       f"executing cluster")
    expected = mapping.wakeup_clusters_per_operand()
    if n == 4 and expected != 2:
        yield (f"Figure 3 connects each operand port to 2 of 4 clusters, "
               f"mapping connects {expected}")
    for subset in range(n):
        first_readers = len(mapping.first_readers(subset))
        second_readers = len(mapping.second_readers(subset))
        if first_readers != expected or second_readers != expected:
            yield (f"subset {subset} is read-connected to "
                   f"{first_readers}/{second_readers} clusters "
                   f"(first/second port), expected {expected} on each")


@rule("CFG-PORT-ARITHMETIC",
      "port counts agree with the cost/complexity model")
def _check_port_arithmetic(config: MachineConfig) -> Iterator[str]:
    n = config.num_clusters
    read_specialized = config.uses_read_specialization
    try:
        visible = visible_result_buses(n, read_specialized)
    except CostModelError:
        if n % 2 == 0:
            yield (f"cost model cannot compute visible buses for "
                   f"{n} clusters (read specialized: {read_specialized})")
        # Odd cluster counts (the 7-cluster extension) fall outside the
        # paper's pair-based cost formula; the mapping itself is the
        # ground truth there, checked by CFG-READ-CONNECTIVITY.
        return
    if read_specialized:
        from repro.extensions.general_wsrs import make_mapping

        mapping_buses = make_mapping(n).result_buses_per_operand(
            RESULTS_PER_CLUSTER)
        if mapping_buses != visible:
            yield (f"mapping exposes {mapping_buses} result buses per "
                   f"operand port, cost model claims {visible}")
    else:
        if visible != result_buses(n):
            yield (f"without read specialization every port monitors all "
                   f"{result_buses(n)} buses, cost model claims {visible}")
    comparators = wakeup_comparators(visible)
    if comparators != 2 * visible:
        yield (f"wake-up entry implements {comparators} comparators for "
               f"{visible} visible buses, expected {2 * visible}")


@rule("CFG-DEADLOCK-PROOF",
      "deadlock_policy='none' requires provably deadlock-free subsets")
def _check_deadlock_proof(config: MachineConfig) -> Iterator[str]:
    # The section 2.3 deadlock needs every physical register of one
    # subset architecturally mapped; with at most `logical` committed
    # mappings per class that state is unreachable iff the subset holds
    # strictly more registers (MachineConfig.deadlock_free).
    # subset_size == logical is the borderline case
    # MachineConfig.validate lets through.
    if config.deadlock_policy != DEADLOCK_NONE or config.deadlock_free:
        return
    for label, total, logical in _register_classes(config):
        subset_size = total // config.num_subsets
        if subset_size <= logical:
            yield (f"{label} subsets of {subset_size} registers can in "
                   f"principle deadlock with {logical} architected "
                   f"registers (need >= {logical + 1}); pick an explicit "
                   f"deadlock policy")


def check_config(config: MachineConfig) -> List[RuleViolation]:
    """Run every registered rule; returns the violations found.

    Per-field validation runs first: an inconsistent config is reported
    as a single ``CFG-FIELD`` violation and the structural rules are
    skipped (their premises do not hold).
    """
    try:
        config.validate()
    except ConfigError as exc:
        return [RuleViolation("CFG-FIELD", str(exc))]
    violations: List[RuleViolation] = []
    for registered in all_rules():
        for message in registered.func(config):
            violations.append(RuleViolation(registered.rule_id, message))
    return violations


def verify_config(config: MachineConfig) -> None:
    """Raise :class:`VerificationError` if any rule is violated."""
    violations = check_config(config)
    if violations:
        details = "; ".join(str(violation) for violation in violations)
        raise VerificationError(
            f"configuration {config.name!r} breaks "
            f"{len(violations)} invariant(s): {details}")

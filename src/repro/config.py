"""Machine configurations for the simulated architectures.

This module defines the full parameter space of the simulator and provides
factory functions for the six configurations evaluated in section 5 of the
paper:

========================  =============================================
``baseline_rr_256()``     conventional 4-cluster, round-robin, 256 regs,
                          17-cycle minimum misprediction penalty
``ws_rr(384 | 512)``      register Write Specialization only, round-robin,
                          16-cycle penalty (one register-read stage saved)
``wsrs_rc(384 | 512)``    WSRS with the random-"commutative"-cluster (RC)
                          allocation policy, renaming implementation 2,
                          18-cycle penalty
``wsrs_rm(512)``          WSRS with the random-monadic (RM) policy
========================  =============================================

Cluster organisation follows section 4: four identical 2-way clusters, each
with two integer ALUs, one load/store unit and one fully pipelined FP unit,
up to 56 in-flight instructions per cluster (224 total).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.trace.model import OpClass

#: Table 2 of the paper - latency of the principal instructions.
DEFAULT_LATENCIES: Dict[OpClass, int] = {
    OpClass.IALU: 1,
    OpClass.IMULDIV: 15,
    OpClass.LOAD: 2,  # L1 hit latency; misses add the Table 3 penalties
    OpClass.STORE: 1,  # address generation / queue entry allocation
    OpClass.BRANCH: 1,
    OpClass.FPADD: 4,
    OpClass.FPMUL: 4,
    OpClass.FPDIV: 15,
    OpClass.NOP: 1,
}

#: Specialization styles for the physical register file.
SPECIALIZATION_NONE = "none"
SPECIALIZATION_WS = "ws"
SPECIALIZATION_WSRS = "wsrs"
_SPECIALIZATIONS = (SPECIALIZATION_NONE, SPECIALIZATION_WS,
                    SPECIALIZATION_WSRS)

#: Fast-forwarding (bypass) policies of section 4.3.1.
FASTFORWARD_INTRA = "intra"      # free inside a cluster, +1 cycle otherwise
FASTFORWARD_PAIRS = "pairs"      # free inside an adjacent cluster pair
FASTFORWARD_COMPLETE = "complete"  # free everywhere
_FASTFORWARDS = (FASTFORWARD_INTRA, FASTFORWARD_PAIRS, FASTFORWARD_COMPLETE)

#: Deadlock workarounds of section 2.3.
DEADLOCK_NONE = "none"    # subsets are large enough; deadlock impossible
DEADLOCK_RAISE = "raise"  # detect and raise (workaround (b), the exception)
DEADLOCK_MOVES = "moves"  # detect and inject rebalancing move uops
_DEADLOCK_POLICIES = (DEADLOCK_NONE, DEADLOCK_RAISE, DEADLOCK_MOVES)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    line_bytes: int
    associativity: int
    hit_latency: int
    miss_penalty: int

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    def validate(self) -> None:
        # Positivity first: the modulo / power-of-two checks below divide
        # by these fields and are meaningless (or crash) on zero.
        if self.size_bytes <= 0:
            raise ConfigError("cache size must be positive")
        if self.line_bytes <= 0:
            raise ConfigError("cache line size must be positive")
        if self.associativity <= 0:
            raise ConfigError("cache associativity must be positive")
        if self.hit_latency < 1:
            raise ConfigError("cache hit latency must be >= 1 cycle")
        if self.miss_penalty < 0:
            raise ConfigError("cache miss penalty must be >= 0 cycles")
        if self.size_bytes % self.line_bytes:
            raise ConfigError("cache size must be a multiple of line size")
        if self.num_lines % self.associativity:
            raise ConfigError("line count must be a multiple of ways")
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError("number of sets must be a power of two")


@dataclass(frozen=True)
class MemoryConfig:
    """Table 3 of the paper - the data-memory hierarchy.

    ``l1_ports`` is the global number of L1 accesses per cycle ("4 W/cycle");
    ``l2_bytes_per_cycle`` throttles the L2-to-L1 refill bandwidth
    ("16 B/cycle").
    """

    l1: CacheConfig = CacheConfig(
        size_bytes=32 * 1024, line_bytes=64, associativity=4,
        hit_latency=2, miss_penalty=12,
    )
    l2: CacheConfig = CacheConfig(
        size_bytes=512 * 1024, line_bytes=64, associativity=8,
        hit_latency=12, miss_penalty=80,
    )
    l1_ports: int = 4
    l2_bytes_per_cycle: int = 16

    def validate(self) -> None:
        self.l1.validate()
        self.l2.validate()
        if self.l1_ports < 1:
            raise ConfigError("need at least one L1 port")
        if self.l2_bytes_per_cycle < 1:
            raise ConfigError("L2 bandwidth must be positive")

    @property
    def l2_refill_cycles(self) -> int:
        """Cycles the L2 bus is busy transferring one L1 line."""
        return max(1, self.l1.line_bytes // self.l2_bytes_per_cycle)


@dataclass(frozen=True)
class ClusterConfig:
    """One execution cluster (all clusters are identical, section 4.1)."""

    issue_width: int = 2
    num_alus: int = 2
    num_lsus: int = 1
    num_fpus: int = 1
    max_inflight: int = 56

    def validate(self) -> None:
        if self.issue_width < 1:
            raise ConfigError("cluster issue width must be >= 1")
        if min(self.num_alus, self.num_lsus, self.num_fpus) < 0:
            raise ConfigError("functional unit counts must be >= 0")
        if self.num_lsus < 1:
            # No load could ever issue: the pipeline would stall until
            # the deadlock watchdog fires.
            raise ConfigError("cluster needs at least one load/store unit")
        if self.max_inflight < self.issue_width:
            raise ConfigError("cluster window smaller than issue width")


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of one simulated machine.

    The integer and floating-point register files are separate (as on the
    SPARC machines the paper simulates) and each is organised - monolithic,
    write-specialized, or WSRS - according to ``specialization``.
    ``int_physical_registers`` / ``fp_physical_registers`` are *totals*
    across subsets.
    """

    name: str = "machine"
    num_clusters: int = 4
    front_width: int = 8
    commit_width: int = 8
    rob_size: int = 224
    cluster: ClusterConfig = ClusterConfig()

    specialization: str = SPECIALIZATION_NONE
    rename_impl: int = 2
    recycle_pipeline_depth: int = 3
    allocation_policy: str = "round_robin"
    deadlock_policy: str = DEADLOCK_NONE

    int_logical_registers: int = 80   # 4 resident SPARC windows
    fp_logical_registers: int = 32
    int_physical_registers: int = 256
    fp_physical_registers: int = 256

    mispredict_penalty: int = 17
    fastforward: str = FASTFORWARD_INTRA
    latencies: Dict[OpClass, int] = field(
        default_factory=lambda: dict(DEFAULT_LATENCIES))
    memory: MemoryConfig = MemoryConfig()

    pipelined_muldiv: bool = True
    shared_muldiv: bool = False  # one divider per adjacent cluster pair
    seed: int = 12345

    # -- derived quantities ---------------------------------------------

    @property
    def num_subsets(self) -> int:
        """Physical register subsets per file (1 unless specialized)."""
        if self.specialization == SPECIALIZATION_NONE:
            return 1
        return self.num_clusters

    @property
    def int_subset_size(self) -> int:
        return self.int_physical_registers // self.num_subsets

    @property
    def fp_subset_size(self) -> int:
        return self.fp_physical_registers // self.num_subsets

    @property
    def total_logical_registers(self) -> int:
        return self.int_logical_registers + self.fp_logical_registers

    def is_fp_register(self, logical: int) -> bool:
        """Whether a flat logical register index names an FP register."""
        return logical >= self.int_logical_registers

    @property
    def uses_write_specialization(self) -> bool:
        return self.specialization in (SPECIALIZATION_WS,
                                       SPECIALIZATION_WSRS)

    @property
    def uses_read_specialization(self) -> bool:
        return self.specialization == SPECIALIZATION_WSRS

    @property
    def deadlock_free(self) -> bool:
        """The section 2.3 sizing rule: every subset holds more registers
        than its class has logical ones, so no subset can ever be filled
        with architected values and no deadlock workaround can fire."""
        return (self.int_subset_size > self.int_logical_registers
                and self.fp_subset_size > self.fp_logical_registers)

    @property
    def simulation_key(self) -> Tuple:
        """Every field but ``name``, with ``deadlock_policy`` folded to
        ``none`` on a :attr:`deadlock_free` machine: two configs with
        equal keys simulate bit-identically."""
        key = []
        for name in (entry.name for entry in fields(self)):
            value = getattr(self, name)
            if name == "deadlock_policy" and self.deadlock_free:
                value = DEADLOCK_NONE
            elif isinstance(value, dict):
                value = tuple(sorted((op.name, v) for op, v in value.items()))
            if name != "name":
                key.append(value)
        return tuple(key)

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any inconsistency."""
        if self.num_clusters < 1:
            raise ConfigError("need at least one cluster")
        if self.specialization not in _SPECIALIZATIONS:
            raise ConfigError(f"unknown specialization {self.specialization}")
        if self.uses_read_specialization and self.num_clusters != 4 \
                and self.allocation_policy != "mapped_random":
            # The RM/RC policies encode the 4-cluster Figure 3 mapping;
            # other cluster counts need the generalised mapped_random
            # policy of repro.extensions.general_wsrs.
            raise ConfigError(
                "WSRS with a cluster count other than 4 requires the "
                "'mapped_random' allocation policy")
        if self.fastforward not in _FASTFORWARDS:
            raise ConfigError(f"unknown fastforward {self.fastforward}")
        if self.deadlock_policy not in _DEADLOCK_POLICIES:
            raise ConfigError(f"unknown deadlock policy "
                              f"{self.deadlock_policy}")
        if self.rename_impl not in (1, 2):
            raise ConfigError("rename_impl must be 1 or 2")
        for total, logical, label in (
            (self.int_physical_registers, self.int_logical_registers, "int"),
            (self.fp_physical_registers, self.fp_logical_registers, "fp"),
        ):
            if total % self.num_subsets:
                raise ConfigError(
                    f"{label} register count {total} not divisible into "
                    f"{self.num_subsets} subsets")
            subset = total // self.num_subsets
            if self.uses_write_specialization and subset < logical:
                if self.deadlock_policy == DEADLOCK_NONE:
                    raise ConfigError(
                        f"{label} subsets of {subset} registers can "
                        f"deadlock with {logical} logical registers; pick a "
                        f"deadlock policy (section 2.3)")
            if total < logical + 1:
                raise ConfigError(f"too few {label} physical registers")
        if self.rob_size < self.front_width:
            raise ConfigError("ROB smaller than the front-end width")
        if self.mispredict_penalty < 1:
            raise ConfigError("misprediction penalty must be >= 1")
        self.cluster.validate()
        self.memory.validate()
        for op in OpClass:
            if self.latencies.get(op, 0) < 1:
                raise ConfigError(f"missing/invalid latency for {op.name}")

    def with_changes(self, **kwargs) -> "MachineConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)

    # -- bypass-delay model ----------------------------------------------

    def forward_delay(self, producer_cluster: int,
                      consumer_cluster: int) -> int:
        """Extra cycles before a result is usable on the consumer cluster.

        Zero means a dependent instruction can issue back-to-back
        (fast-forwarding); the section 5 experiments use the ``intra``
        policy - free inside a cluster, one cycle from cluster to cluster.
        """
        if producer_cluster == consumer_cluster:
            return 0
        if self.fastforward == FASTFORWARD_COMPLETE:
            return 0
        if self.fastforward == FASTFORWARD_PAIRS:
            if producer_cluster // 2 == consumer_cluster // 2:
                return 0
        return 1


# ---------------------------------------------------------------------------
# The six configurations of section 5.2.1
# ---------------------------------------------------------------------------

def baseline_rr_256(**overrides) -> MachineConfig:
    """Conventional 4-cluster 8-way machine, round-robin, 256 registers."""
    config = MachineConfig(
        name="RR 256",
        specialization=SPECIALIZATION_NONE,
        allocation_policy="round_robin",
        int_physical_registers=256,
        fp_physical_registers=128,
        mispredict_penalty=17,
    )
    return config.with_changes(**overrides) if overrides else config


def ws_rr(total_registers: int = 512, rename_impl: int = 2,
          **overrides) -> MachineConfig:
    """Write Specialization only, round-robin allocation.

    The register-read pipeline is one cycle shorter than the conventional
    machine (section 4.2), hence the 16-cycle minimum penalty.  Both
    renaming implementations of section 2.2 are available; the paper reports
    implementation 2 (results were indistinguishable).
    """
    if total_registers % 4:
        raise ConfigError("WS register total must split into 4 subsets")
    config = MachineConfig(
        name=f"WSRR {total_registers}",
        specialization=SPECIALIZATION_WS,
        rename_impl=rename_impl,
        allocation_policy="round_robin",
        int_physical_registers=total_registers,
        fp_physical_registers=total_registers // 2,
        mispredict_penalty=16,
    )
    return config.with_changes(**overrides) if overrides else config


def _wsrs(policy: str, total_registers: int, rename_impl: int,
          name: str) -> MachineConfig:
    if total_registers % 4:
        raise ConfigError("WSRS register total must split into 4 subsets")
    # Renaming implementation 1 costs one extra front-end stage (16-cycle
    # penalty: +1 before rename, -2 on register read); implementation 2
    # costs three (18-cycle penalty) - section 3.2 and 5.2.1.
    penalty = 16 if rename_impl == 1 else 18
    return MachineConfig(
        name=name,
        specialization=SPECIALIZATION_WSRS,
        rename_impl=rename_impl,
        allocation_policy=policy,
        int_physical_registers=total_registers,
        fp_physical_registers=total_registers // 2,
        mispredict_penalty=penalty,
    )


def wsrs_rc(total_registers: int = 512, rename_impl: int = 2,
            **overrides) -> MachineConfig:
    """WSRS with the random-"commutative"-cluster allocation policy."""
    config = _wsrs("random_commutative", total_registers, rename_impl,
                   f"WSRS RC S {total_registers}")
    return config.with_changes(**overrides) if overrides else config


def wsrs_rm(total_registers: int = 512, rename_impl: int = 2,
            **overrides) -> MachineConfig:
    """WSRS with the random-monadic allocation policy."""
    config = _wsrs("random_monadic", total_registers, rename_impl,
                   f"WSRS RM S {total_registers}")
    return config.with_changes(**overrides) if overrides else config


def two_cluster_4way(**overrides) -> MachineConfig:
    """The noWS-2 reference machine of Table 1: a conventional 2-cluster
    4-way superscalar (128 integer registers, half-size everything).

    Not part of the Figure 4 performance study, but useful for the
    complexity-versus-performance comparisons of section 4.2.2 ("compared
    with the 2-cluster conventional architecture...").
    """
    config = MachineConfig(
        name="noWS-2",
        num_clusters=2,
        front_width=4,
        commit_width=4,
        rob_size=112,
        specialization=SPECIALIZATION_NONE,
        allocation_policy="round_robin",
        int_physical_registers=128,
        fp_physical_registers=64,
        mispredict_penalty=15,
    )
    return config.with_changes(**overrides) if overrides else config


def wsrs_seven_cluster(int_registers: int = 567,
                       **overrides) -> MachineConfig:
    """The 7-cluster WSRS machine of the companion report [15].

    Seven identical 2-way clusters (a 14-way machine) with the Fano-plane
    read-specialization mapping of :mod:`repro.extensions.general_wsrs`.
    Register totals must split into 7 subsets; the defaults give each
    subset 81 integer registers - one past the 80 architected ones, the
    minimum satisfying the section 2.3 sizing rule (deadlock is provably
    impossible only with strictly *more* registers per subset than
    architected ones), so ``CFG-DEADLOCK-PROOF`` applies and no runtime
    deadlock workaround is needed.  Totals at or below the borderline
    (e.g. the 560 the report's area budget suggests) remain expressible
    via ``int_registers=`` plus ``deadlock_policy="moves"``.
    """
    if int_registers % 7:
        raise ConfigError("7-cluster register total must split 7 ways")
    config = MachineConfig(
        name="WSRS 7C",
        num_clusters=7,
        front_width=14,
        commit_width=14,
        rob_size=392,  # 7 x 56
        specialization=SPECIALIZATION_WSRS,
        allocation_policy="mapped_random",
        int_physical_registers=int_registers,
        fp_physical_registers=280,
        mispredict_penalty=18,
    )
    return config.with_changes(**overrides) if overrides else config


def figure4_configs() -> Tuple[MachineConfig, ...]:
    """The six configurations plotted in Figure 4, in legend order."""
    return (
        baseline_rr_256(),
        ws_rr(384),
        ws_rr(512),
        wsrs_rc(384),
        wsrs_rc(512),
        wsrs_rm(512),
    )


def config_by_name(name: str, **overrides) -> MachineConfig:
    """Look up one of the section 5 configurations by its legend label."""
    factories = {
        "RR 256": baseline_rr_256,
        "WSRR 384": lambda: ws_rr(384),
        "WSRR 512": lambda: ws_rr(512),
        "WSRS RC S 384": lambda: wsrs_rc(384),
        "WSRS RC S 512": lambda: wsrs_rc(512),
        "WSRS RM S 512": lambda: wsrs_rm(512),
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ConfigError(
            f"unknown configuration {name!r}; choose from "
            f"{sorted(factories)}") from None
    config = factory()
    return config.with_changes(**overrides) if overrides else config

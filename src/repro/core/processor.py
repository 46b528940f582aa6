"""The cycle-level clustered out-of-order processor model.

This is the simulator behind section 5 of the paper: an 8-way machine made
of four identical 2-way clusters (2 ALUs + 1 load/store unit + 1 FP unit
each, up to 56 in-flight instructions per cluster), with

* an idealised front end delivering 8 instructions/cycle to rename
  (:mod:`repro.frontend.fetch`), realistic 2Bc-gskew direction prediction
  and a *minimum misprediction penalty* per configuration (17 cycles for
  the conventional machine, 16 with write specialization alone, 16/18 for
  WSRS renaming implementations 1/2);
* cluster allocation **before** renaming (round-robin, RM or RC -
  :mod:`repro.allocation.policies`), with the allocation decision made
  once per instruction and kept across stall cycles;
* register renaming with optional write specialization
  (:mod:`repro.rename.renamer`), separate integer/FP physical files;
* per-cluster wake-up/select with oldest-first selection
  (:mod:`repro.core.issue_queue`), free intra-cluster fast-forwarding and
  a one-cycle inter-cluster forwarding delay (configurable - the
  fast-forwarding policies of section 4.3.1);
* Table 2 latencies, in-order address computation with conflict-checked
  load bypassing (:mod:`repro.core.lsq`), and the Table 3 memory
  hierarchy (:mod:`repro.memory.hierarchy`);
* in-order commit (8 wide) releasing previous physical mappings.

Wrong-path instructions are not simulated: a mispredicted branch stops
instruction delivery until ``resolution_cycle + minimum_penalty``, which is
the paper's own level of abstraction for the front end.

The main loop has two gears.  The reference stepper
(:meth:`Processor.step`) advances one cycle at a time and is the oracle.
The specialized gear (``gear="specialized"``, the default;
:mod:`repro.core.specialize`) compiles a run loop specialized to the
frozen configuration - constants baked in, per-cycle dispatch
flattened, and an *event-horizon* jump that detects cycles where the
machine provably does nothing (commit idle, no scheduler entry awake,
rename stalled on a branch-penalty window, a full ROB/cluster, or an
exhausted trace) and moves ``cycle`` straight to the next event,
bulk-charging the per-cycle stall counters for the skipped range.
Attached hooks (a sanitizer, an observer or tracer) select a variant of
the generated loop that calls them at the same points as the reference
stepper.  When a guard condition (a deadlock-breaking move) leaves the
specialized envelope mid-run, the rest of the run continues on the
reference stepper.  Every statistic is bit-identical across both gears;
see ``docs/architecture.md`` ("Performance") for the argument.

Typical use::

    from repro.config import wsrs_rc
    from repro.core.processor import Processor
    from repro.trace.profiles import spec_trace

    proc = Processor(wsrs_rc(512), spec_trace("gzip", 200_000))
    stats = proc.run(warmup=50_000, measure=100_000)
    print(stats.ipc, stats.unbalancing_degree)
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

from repro.allocation.policies import make_allocator
from repro.config import MachineConfig
from repro.core.issue_queue import ClusterScheduler
from repro.core.lsq import MemoryOrderQueue
from repro.core.stats import SimulationStats
from repro.core.uop import UNKNOWN_CYCLE, InFlightUop
from repro.errors import ConfigError, ReproError
from repro.frontend.fetch import FrontEnd
from repro.frontend.predictors import BranchPredictor, make_predictor
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.model import OpClass, TraceInstruction

#: Abort if the machine makes no forward progress for this many pipeline
#: events (reference-stepper cycles, or the specialized gear's steps and
#: event-horizon jumps).
_PROGRESS_LIMIT = 100_000


class DeadlockedPipeline(ReproError):
    """The simulated machine stopped making forward progress."""


class Processor:
    """One simulated machine instance bound to one trace.

    ``gear`` picks the main loop: ``"reference"`` for the per-cycle
    stepper, ``"specialized"`` or ``None`` (the default) for the
    generated stepper.  After construction :attr:`gear` names the gear
    that runs; it drops to the reference gear when a mid-run guard
    trips (see :attr:`despecializations`).
    """

    def __init__(
        self,
        config: MachineConfig,
        trace: Iterable[TraceInstruction],
        predictor: Optional[BranchPredictor] = None,
        sanitize: Optional[bool] = None,
        observe: bool = False,
        tracer=None,
        gear: Optional[str] = None,
    ) -> None:
        config.validate()
        self.config = config
        if gear is not None:
            from repro.core.specialize import GEARS

            if gear not in GEARS:
                raise ConfigError(
                    f"unknown gear {gear!r}; expected one of {GEARS}")
        #: Event-horizon instrumentation (diagnostics only - deliberately
        #: not part of :class:`SimulationStats`, whose counters stay
        #: bit-identical between the two gears).
        self.horizon_jumps = 0
        self.horizon_cycles_skipped = 0

        self.frontend = FrontEnd(
            trace, predictor or make_predictor("2bcgskew"))
        from repro.rename.renamer import Renamer

        self.renamer = Renamer(config)
        self.allocator = make_allocator(
            config.allocation_policy, config.num_clusters, config.seed)
        if config.uses_read_specialization and not self.allocator.wsrs_legal:
            raise ConfigError(
                f"policy {config.allocation_policy!r} ignores the WSRS "
                f"read constraints; use an RS-aware policy (RM, RC, ...)")

        self.memory = MemoryHierarchy(config.memory)
        self.memorder = MemoryOrderQueue()
        cluster = config.cluster
        self.schedulers = [
            ClusterScheduler(i, cluster.issue_width, cluster.num_alus,
                             cluster.num_lsus, cluster.num_fpus,
                             memorder=self.memorder)
            for i in range(config.num_clusters)
        ]
        self.stats = SimulationStats(config.num_clusters)

        num_regs = self.renamer.total_global_registers
        self._reg_result: List[int] = [0] * num_regs
        self._reg_cluster: List[int] = [-1] * num_regs
        self._reg_waiters: Dict[int, List[InFlightUop]] = {}

        self._rob: Deque[InFlightUop] = deque()
        self.cycle = 0
        self._seq = 0
        # Deadlock-move accounting: front-end slots still owed by moves
        # that exceeded an earlier cycle's budget, and the renamer's
        # cumulative move count at the last measurement reset (so the
        # measured slice reports only its own moves).
        self._move_debt = 0
        self._measured_moves_base = 0
        self._rename_blocked_until = 0
        self._waiting_branch: Optional[InFlightUop] = None
        self._pending_decision = None
        self._muldiv_busy_until = [0] * config.num_clusters
        self._latencies = dict(config.latencies)
        # forward_delay, precomputed into a num_clusters x num_clusters
        # table (row = producer cluster): the wake-up and bypass hot
        # loops index it instead of re-deriving the policy per operand.
        self._forward_table: List[List[int]] = [
            [config.forward_delay(producer, consumer)
             for consumer in range(config.num_clusters)]
            for producer in range(config.num_clusters)
        ]
        # Whether the multiply/divide unit is a trackable hazard at all
        # (private pipelined units never reject an IMULDIV, so the
        # schedulers run with an unlimited quota).
        self._muldiv_vetoed = (not config.pipelined_muldiv
                               or config.shared_muldiv)

        self.stats.record_run_metadata(config.allocation_policy,
                                       self.allocator.seed)

        from repro.verify.sanitizer import (
            PipelineSanitizer,
            sanitize_from_env,
        )

        self.sanitizer: Optional[PipelineSanitizer] = None
        if sanitize_from_env(sanitize):
            from repro.verify.rules import verify_config

            verify_config(config)
            self.sanitizer = PipelineSanitizer(config, self.renamer)

        # Observability (repro.obs): CPI-stack cycle accounting, the
        # counter/histogram registry and the optional structured event
        # trace.  A pure reader - attached last so it sees the fully
        # built machine.
        self.obs = None
        if observe or tracer is not None:
            from repro.obs.observer import Observer

            self.obs = Observer(self, tracer=tracer)
        #: The attached hooks, in call order.  Both gears call every hook
        #: at the same points: dispatch, issue, commit, cycle end and
        #: (specialized gear only) an event-horizon skip.
        self._hooks = tuple(hook for hook in (self.sanitizer, self.obs)
                            if hook is not None)

        # The specialized stepper (repro.core.specialize), built last so
        # the hooks it calls are attached.  The stored stepper is the
        # generated function itself, called with this processor as its
        # argument: a closure bound to ``self`` would make every
        # processor a reference cycle that outlives its run until a
        # full garbage collection.  ``despecializations`` counts mid-run
        # guard trips.
        self._specialized_run = None
        self.despecializations = 0
        if gear != "reference":
            from repro.core.specialize import build_specialized_runner

            self._specialized_run = build_specialized_runner(self)
        self.gear = "reference" if gear == "reference" else "specialized"

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, measure: int, warmup: int = 0) -> SimulationStats:
        """Simulate ``warmup`` then ``measure`` committed instructions.

        Warm-up trains the caches and the branch predictor without
        counting; statistics cover only the measured slice, as in the
        paper's methodology.  The run ends early (without error) if the
        trace is exhausted.
        """
        if warmup:
            self._run_until(self.stats.committed + warmup)
            self.stats.reset_measurement()
            self._measured_moves_base = self.renamer.deadlock_moves
            if self.obs is not None:
                self.obs.on_measurement_reset()
        self._run_until(self.stats.committed + measure)
        return self.stats

    def _run_until(self, committed_target: int) -> None:
        runner = self._specialized_run
        if runner is not None:
            if runner(self, committed_target):
                return
            # A specialization guard tripped (deadlock-breaking move):
            # the specialized stepper finished the trip cycle with
            # reference semantics and wrote all state back, so the
            # reference stepper resumes mid-run without divergence.  The
            # despecialization is permanent for this processor.
            self._specialized_run = None
            self.despecializations += 1
            self.gear = "reference"
        idle_cycles = 0
        last_committed = self.stats.committed
        while self.stats.committed < committed_target:
            if self.frontend.exhausted and not self._rob:
                break
            self.step()
            if self.stats.committed != last_committed:
                last_committed = self.stats.committed
                idle_cycles = 0
            else:
                idle_cycles += 1
                if idle_cycles > _PROGRESS_LIMIT:
                    raise DeadlockedPipeline(
                        f"no instruction committed for {idle_cycles} "
                        f"cycles at cycle {self.cycle}")

    def step(self) -> None:
        """Advance the machine by one cycle."""
        cycle = self.cycle
        self._commit(cycle)
        self._issue(cycle)
        self.renamer.begin_cycle()
        self._rename_and_dispatch(cycle)
        self.renamer.end_cycle()
        for hook in self._hooks:
            hook.on_cycle_end(cycle)
        self.stats.cycles += 1
        self.cycle = cycle + 1

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit(self, cycle: int) -> None:
        rob = self._rob
        renamer = self.renamer
        stats = self.stats
        hooks = self._hooks
        budget = self.config.commit_width
        while budget and rob:
            uop = rob[0]
            if uop.result_cycle > cycle:
                break
            rob.popleft()
            for hook in hooks:
                hook.on_commit(uop, cycle)
            if uop.pdest is not None:
                renamer.retire_write(uop.pdest)
            if uop.pold is not None:
                renamer.commit_free(uop.pold)
            if uop.inst.is_store:
                self.memorder.commit_store(uop.seq)
            self.schedulers[uop.cluster].inflight -= 1
            stats.committed += 1
            budget -= 1

    # ------------------------------------------------------------------
    # issue / execute
    # ------------------------------------------------------------------

    def _muldiv_unit(self, cluster: int) -> int:
        """Index of the multiply/divide unit serving ``cluster``.

        Section 4.1: as an alternative to replicating dividers on every
        cluster, "a divider can be shared among two adjacent clusters"
        with static arbitration; ``shared_muldiv`` models that sharing.
        """
        if self.config.shared_muldiv:
            return cluster // 2
        return cluster

    def _issue(self, cycle: int) -> None:
        # Memory-order hazards are handled entirely by parking (the
        # schedulers only ever hold the memory-order head in their ready
        # lists); the multiply/divide hazard reaches select as a quota.
        # An IMULDIV issued on cluster i raises the unit's busy_until
        # before cluster i+1 selects, so a shared pair arbitrates
        # in-cycle through the quota alone - no per-cycle claim set.
        tracked = self._muldiv_vetoed
        busy_until = self._muldiv_busy_until
        start = self._start_execution
        for scheduler in self.schedulers:
            if scheduler.is_empty():
                continue
            if tracked:
                unit = self._muldiv_unit(scheduler.cluster_id)
                quota = 1 if busy_until[unit] <= cycle else 0
            else:
                quota = None
            for uop in scheduler.select(cycle, quota):
                start(uop, cycle)

    def _start_execution(self, uop: InFlightUop, cycle: int) -> None:
        inst = uop.inst
        stats = self.stats
        latency = self._latencies[inst.op]

        if inst.is_load:
            forwarded_from = self.memorder.issue_load(inst.addr,
                                                      uop.mem_index)
            if forwarded_from is not None:
                latency = self.config.memory.l1.hit_latency
                stats.store_forwards += 1
            else:
                result = self.memory.access(inst.addr, cycle)
                latency = result.latency
                if not result.l1_hit:
                    stats.l1_misses += 1
                    if not result.l2_hit:
                        stats.l2_misses += 1
            stats.loads += 1
        elif inst.is_store:
            self.memorder.issue_store(uop.seq, inst.addr, uop.mem_index)
            result = self.memory.access(inst.addr, cycle, is_store=True)
            if not result.l1_hit:
                stats.l1_misses += 1
                if not result.l2_hit:
                    stats.l2_misses += 1
            stats.stores += 1

        uop.issue_cycle = cycle
        result_cycle = cycle + latency
        uop.result_cycle = result_cycle
        for hook in self._hooks:
            hook.on_issue(uop, cycle)
        if inst.op == OpClass.IMULDIV:
            if not self.config.pipelined_muldiv:
                # non-pipelined: the unit is busy for the whole operation
                self._muldiv_busy_until[self._muldiv_unit(uop.cluster)] = \
                    result_cycle
            elif self.config.shared_muldiv:
                # pipelined but shared: the pair's unit accepts one
                # operation per cycle
                self._muldiv_busy_until[self._muldiv_unit(uop.cluster)] = \
                    cycle + 1
        stats.issued += 1
        stats.cluster_issued[uop.cluster] += 1

        pdest = uop.pdest
        if pdest is not None:
            self._reg_result[pdest] = result_cycle
            waiters = self._reg_waiters.pop(pdest, None)
            if waiters:
                producer_cluster = uop.cluster
                delay_row = self._forward_table[producer_cluster]
                for waiter in waiters:
                    if waiter.cluster == producer_cluster:
                        stats.bypass_edges_intra += 1
                    else:
                        stats.bypass_edges_inter += 1
                    usable = result_cycle + delay_row[waiter.cluster]
                    if usable > waiter.earliest_issue:
                        waiter.earliest_issue = usable
                    waiter.waiting_operands -= 1
                    if not waiter.waiting_operands:
                        self.schedulers[waiter.cluster].enqueue(
                            waiter, waiter.earliest_issue)

        if uop.mispredicted:
            self._rename_blocked_until = (result_cycle
                                          + self.config.mispredict_penalty)
            if self._waiting_branch is uop:
                self._waiting_branch = None

    # ------------------------------------------------------------------
    # rename / dispatch
    # ------------------------------------------------------------------

    def _rename_and_dispatch(self, cycle: int) -> None:
        stats = self.stats
        config = self.config
        renamer = self.renamer
        rob = self._rob
        schedulers = self.schedulers
        subset_of = renamer.subset_of_logical
        cap = config.cluster.max_inflight
        budget = config.front_width

        # Deadlock-breaking moves that overflowed an earlier cycle's
        # budget still owe front-end slots; settle the debt first.
        if self._move_debt:
            paid = min(budget, self._move_debt)
            self._move_debt -= paid
            budget -= paid
            stats.stall_deadlock_moves += paid
            if not budget:
                return

        while budget:
            if self._waiting_branch is not None \
                    or cycle < self._rename_blocked_until:
                stats.stall_branch_penalty += budget
                return
            if len(rob) >= config.rob_size:
                stats.stall_rob_full += budget
                return
            fetched = self.frontend.peek()
            if fetched is None:
                return
            inst = fetched.inst

            # The allocation decision is made once and survives stall
            # retries (a re-draw would quietly rebalance the workload).
            if self._pending_decision is None:
                occupancy = [s.inflight for s in schedulers]
                self._pending_decision = self.allocator.allocate(
                    inst, subset_of, occupancy)
            cluster, swapped = self._pending_decision

            if schedulers[cluster].inflight >= cap:
                stats.stall_cluster_full += budget
                return
            moves_before = renamer.deadlock_moves
            if not renamer.can_rename(inst.dest, cluster):
                stats.stall_no_register += budget
                return
            # Deadlock-breaking moves consume front-end slots.  Charge as
            # many as this cycle can absorb (leaving one slot for the
            # instruction that triggered them); the excess carries into
            # the next cycle's budget as debt.
            moves = renamer.deadlock_moves - moves_before
            if moves:
                charged = min(budget - 1, moves)
                budget -= charged
                self._move_debt += moves - charged
                stats.stall_deadlock_moves += charged

            self.frontend.pop()
            self._pending_decision = None
            psrc1, psrc2, pdest, pold = renamer.rename(inst, cluster)
            stats.deadlock_moves = (renamer.deadlock_moves
                                    - self._measured_moves_base)

            seq = self._seq
            self._seq = seq + 1
            mem_index = (self.memorder.register()
                         if inst.is_memory else -1)
            uop = InFlightUop(
                seq, inst, cluster, swapped, psrc1, psrc2, pdest, pold,
                dispatch_cycle=cycle, mispredicted=fetched.mispredicted,
                mem_index=mem_index)

            if pdest is not None:
                self._reg_result[pdest] = UNKNOWN_CYCLE
                self._reg_cluster[pdest] = cluster

            for hook in self._hooks:
                hook.on_dispatch(uop, cycle)
            self._compute_wakeup(uop, cycle)

            rob.append(uop)
            schedulers[cluster].inflight += 1
            stats.dispatched += 1
            stats.record_allocation(cluster, swapped)
            if inst.is_branch:
                stats.branches += 1
                if fetched.mispredicted:
                    stats.mispredictions += 1
                    self._waiting_branch = uop
            budget -= 1
            if fetched.mispredicted:
                return  # nothing younger is delivered until resolution

    def _compute_wakeup(self, uop: InFlightUop, cycle: int) -> None:
        """Fill in the earliest issue cycle or register operand waiters."""
        reg_result = self._reg_result
        reg_cluster = self._reg_cluster
        forward_table = self._forward_table
        consumer = uop.cluster
        earliest = cycle + 1
        waiting = 0
        for psrc in (uop.psrc1, uop.psrc2):
            if psrc is None:
                continue
            result_cycle = reg_result[psrc]
            if result_cycle == UNKNOWN_CYCLE:
                waiting += 1
                self._reg_waiters.setdefault(psrc, []).append(uop)
            else:
                usable = (result_cycle
                          + forward_table[reg_cluster[psrc]][consumer])
                if usable > earliest:
                    earliest = usable
        uop.earliest_issue = earliest
        uop.waiting_operands = waiting
        if not waiting:
            self.schedulers[uop.cluster].enqueue(uop, earliest)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def rob_occupancy(self) -> int:
        return len(self._rob)

    @property
    def rob_head(self) -> Optional[InFlightUop]:
        """The oldest in-flight micro-op (None when the window is empty)."""
        return self._rob[0] if self._rob else None

    def cluster_occupancies(self) -> List[int]:
        return [scheduler.inflight for scheduler in self.schedulers]


def simulate(
    config: MachineConfig,
    trace: Iterable[TraceInstruction],
    measure: int,
    warmup: int = 0,
    predictor: Optional[BranchPredictor] = None,
    sanitize: Optional[bool] = None,
    observe: bool = False,
    tracer=None,
    gear: Optional[str] = None,
) -> SimulationStats:
    """One-call convenience wrapper around :class:`Processor`."""
    processor = Processor(config, trace, predictor=predictor,
                          sanitize=sanitize, observe=observe,
                          tracer=tracer, gear=gear)
    return processor.run(measure=measure, warmup=warmup)

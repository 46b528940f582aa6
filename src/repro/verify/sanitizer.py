"""Cycle-level pipeline sanitizer.

An opt-in, hook-based checker that shadows the processor's register
lifecycle and verifies, every cycle, that the machine never cheats on the
structural invariants the paper's results depend on:

=====================  ====================================================
``SAN-WRITE-SUBSET``   a cluster wrote a physical register outside its own
                       subset (write specialization, Figure 2a)
``SAN-READ-SUBSET``    an operand was read from a subset the executing
                       cluster's port is not connected to (Figure 3)
``SAN-WAKEUP-WIDTH``   a wake-up entry monitors a producing cluster its
                       RS subset pair does not allow
``SAN-FASTFORWARD``    a result was consumed earlier than the configured
                       ``intra``/``pairs``/``complete`` policy permits
``SAN-REG-STATE``      free-list/map-table conservation broke: a live
                       register was re-allocated (double allocate), a free
                       register was freed again (double free) or read
                       (use after free), or an in-flight destination was
                       freed (free while live)
``SAN-CONSERVATION``   the shadow free count and the renamer's free lists
                       disagree - a register leaked or is in two places
=====================  ====================================================

The sanitizer is enabled with ``Processor(..., sanitize=True)``, the CLI
flag ``--sanitize``, or the environment variable ``WSRS_SANITIZE`` (any
value other than ``0``/``false``/``no``/``off``/empty).  Every violation
raises a structured :class:`SanitizerViolation` carrying the rule id, the
cycle and the offending micro-op's sequence number.

Deadlock-breaking moves (``deadlock_policy="moves"``) remap architected
registers between subsets without passing through the dispatch/commit
lifecycle; the sanitizer re-synchronises its shadow state from the map
table whenever the renamer reports new moves, using free-list membership
to distinguish genuinely freed registers from previous mappings that are
merely awaiting their commit-time free.  The move itself is modelled as
a *real* micro-op injected in program order immediately before the
instruction whose rename triggered it: a register the move freed
records that program-order boundary, and the use-after-free check stays
fully armed relative to it - readers renamed *before* the boundary may
legitimately consume the old copy (their rename saw the pre-move
mapping), while any read by a uop at or past the boundary is a genuine
use-after-free and raises.  The boundary is retired when the register
is next allocated and starts a fresh lifecycle.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig
from repro.errors import VerificationError

#: Environment switch honoured when ``Processor(sanitize=None)``.
SANITIZE_ENV_VAR = "WSRS_SANITIZE"

_ENV_OFF = ("", "0", "false", "no", "off")

#: Shadow register lifecycle states.
STATE_FREE = "free"
STATE_ARCH = "arch"
STATE_INFLIGHT = "inflight"


def sanitize_from_env(explicit: Optional[bool] = None) -> bool:
    """Resolve the sanitize switch: an explicit argument wins, otherwise
    the ``WSRS_SANITIZE`` environment variable decides."""
    if explicit is not None:
        return explicit
    return os.environ.get(SANITIZE_ENV_VAR, "").strip().lower() \
        not in _ENV_OFF


class SanitizerViolation(VerificationError):
    """A cycle-level invariant was broken.

    Attributes
    ----------
    rule:
        The stable rule id (``SAN-...``).
    cycle:
        Cycle at which the violation was observed.
    uop_seq:
        Sequence number of the offending micro-op, or ``None`` for
        machine-level checks (conservation).
    """

    def __init__(self, rule: str, message: str, cycle: int,
                 uop_seq: Optional[int] = None) -> None:
        self.rule = rule
        self.cycle = cycle
        self.uop_seq = uop_seq
        who = f"uop #{uop_seq}" if uop_seq is not None else "machine"
        super().__init__(f"[{rule}] cycle {cycle}, {who}: {message}")


class PipelineSanitizer:
    """Shadow checker for one :class:`repro.core.processor.Processor`.

    The processor calls the hooks (:meth:`on_dispatch`, :meth:`on_issue`,
    :meth:`on_commit`, :meth:`on_cycle_end`, :meth:`on_cycle_skip`) on
    either gear; the sanitizer keeps its own register-state machine and
    connectivity tables so a bug in the renamer, allocator or scheduler
    cannot hide itself.
    """

    def __init__(self, config: MachineConfig, renamer) -> None:
        self.config = config
        self.renamer = renamer
        self.checks = 0

        self._int_phys = config.int_physical_registers
        self._fp_phys = config.fp_physical_registers
        self._int_subset = config.int_subset_size
        self._fp_subset = config.fp_subset_size
        self._num_subsets = config.num_subsets
        self._multi_subset = self._num_subsets > 1
        self._forward_delay = config.forward_delay
        self._seen_moves = renamer.deadlock_moves

        self._mapping = None
        if config.uses_read_specialization:
            from repro.extensions.general_wsrs import make_mapping

            self._mapping = make_mapping(config.num_clusters)

        # Shadow lifecycle state, indexed by global physical register id.
        total = self._int_phys + self._fp_phys
        self._state: List[str] = [STATE_FREE] * total
        # Free-register counts per (file, subset), kept incrementally and
        # reconciled against the renamer's own free lists every cycle.
        self._free_counts: List[List[int]] = [
            [0] * self._num_subsets, [0] * self._num_subsets]
        for file_id, reg_class in enumerate(
                (renamer.int_class, renamer.fp_class)):
            for local in reg_class.map_table.mapped_physicals():
                self._state[reg_class.global_base + local] = STATE_ARCH
            base = reg_class.global_base
            for offset in range(reg_class.num_physical):
                if self._state[base + offset] == STATE_FREE:
                    self._free_counts[file_id][offset
                                               // reg_class.subset_size] += 1
        # Producer bookkeeping: cluster that will write each in-flight
        # destination, and (result_cycle, cluster) once it has issued.
        self._writer_cluster: Dict[int, int] = {}
        self._result_info: Dict[int, Tuple[int, int]] = {}
        # Registers freed by a deadlock-breaking move, mapped to the
        # move's program-order boundary: the sequence number of the
        # first uop renamed after the move.  Readers renamed before the
        # boundary may still consume the old copy; readers at or past
        # it are genuine use-after-free.
        self._move_freed: Dict[int, int] = {}

    # -- geometry -------------------------------------------------------

    def locate(self, preg: int) -> Tuple[int, int]:
        """(file id, subset) of a global physical register id."""
        if preg < self._int_phys:
            return 0, preg // self._int_subset
        return 1, (preg - self._int_phys) // self._fp_subset

    def state_of(self, preg: int) -> str:
        """Shadow lifecycle state of a global physical register id."""
        return self._state[preg]

    # -- violation plumbing ---------------------------------------------

    def _fail(self, rule: str, message: str, cycle: int,
              uop_seq: Optional[int] = None) -> None:
        raise SanitizerViolation(rule, message, cycle, uop_seq)

    # -- hooks ----------------------------------------------------------

    def on_dispatch(self, uop, cycle: int) -> None:
        """Rename/dispatch-time checks: write subset, wake-up width,
        destination allocation."""
        self.checks += 1
        if self.renamer.deadlock_moves != self._seen_moves:
            # Moves were injected while renaming this very uop, so this
            # uop is the move's program-order boundary; its freshly
            # installed destination must keep its pre-rename (free)
            # state during the resync.
            self._resync_architected(exclude=uop.pdest,
                                     boundary=uop.seq)
            if uop.pdest is not None \
                    and self._state[uop.pdest] == STATE_ARCH:
                # The destination still reads as architected: the move
                # freed it and the same renamer call re-allocated it
                # before any hook could witness the free.  End its old
                # architected life here so the allocation below starts
                # a clean one.
                self._set_state(uop.pdest, STATE_FREE)
        cluster = uop.cluster
        pdest = uop.pdest
        if pdest is not None:
            if self._multi_subset:
                _, subset = self.locate(pdest)
                if subset != cluster:
                    self._fail(
                        "SAN-WRITE-SUBSET",
                        f"cluster {cluster} renamed its destination into "
                        f"subset {subset}", cycle, uop.seq)
            state = self._state[pdest]
            if state != STATE_FREE:
                self._fail(
                    "SAN-REG-STATE",
                    f"destination p{pdest} allocated while {state} "
                    f"(double allocate)", cycle, uop.seq)
            self._set_state(pdest, STATE_INFLIGHT)
            self._writer_cluster[pdest] = cluster
            # The new value is not computed yet; forget any stale result
            # timing from the register's previous life.
            self._result_info.pop(pdest, None)
        self._check_wakeup_width(uop, cycle)

    def _check_wakeup_width(self, uop, cycle: int) -> None:
        """The entry's monitored clusters must fit its RS subset pair."""
        if self._mapping is None:
            return
        cluster = uop.cluster
        for port_name, operand, allowed in (
            ("first", uop.first_port_operand,
             self._mapping.first_subsets[cluster]),
            ("second", uop.second_port_operand,
             self._mapping.second_subsets[cluster]),
        ):
            if operand is None:
                continue
            # Under write specialization the producing cluster equals the
            # subset owner; prefer the dynamically recorded writer so a
            # mis-steered producer is caught from the consumer side too.
            _, subset = self.locate(operand)
            monitored = self._writer_cluster.get(operand, subset)
            if monitored not in allowed:
                self._fail(
                    "SAN-WAKEUP-WIDTH",
                    f"{port_name}-port wake-up entry on cluster {cluster} "
                    f"monitors cluster {monitored} (allowed: "
                    f"{list(allowed)})", cycle, uop.seq)

    def on_issue(self, uop, cycle: int) -> None:
        """Issue-time checks: read legality, fast-forward timing, operand
        liveness; records the result timing of the produced register."""
        self.checks += 1
        if self.renamer.deadlock_moves != self._seen_moves:
            self._resync_architected(boundary=self.renamer.renamed)
        cluster = uop.cluster
        if self._mapping is not None:
            first = uop.first_port_operand
            second = uop.second_port_operand
            first_subset = (self.locate(first)[1]
                            if first is not None else None)
            second_subset = (self.locate(second)[1]
                             if second is not None else None)
            if not self._mapping.legal(cluster, first_subset,
                                       second_subset):
                self._fail(
                    "SAN-READ-SUBSET",
                    f"cluster {cluster} read operand subsets "
                    f"({first_subset}, {second_subset})", cycle, uop.seq)
        for psrc in (uop.psrc1, uop.psrc2):
            if psrc is None:
                continue
            # The deadlock move is a real uop in program order: a
            # reader renamed before the move (seq below the recorded
            # boundary) may consume the moved-away copy, but any reader
            # at or past the boundary saw the post-move mapping and a
            # free-list read is a genuine use-after-free.
            if self._state[psrc] == STATE_FREE:
                boundary = self._move_freed.get(psrc)
                if boundary is None:
                    self._fail(
                        "SAN-REG-STATE",
                        f"source p{psrc} read while on the free list "
                        f"(use after free)", cycle, uop.seq)
                elif uop.seq >= boundary:
                    self._fail(
                        "SAN-REG-STATE",
                        f"source p{psrc} read while on the free list "
                        f"(use after free): freed by a deadlock move "
                        f"at program order {boundary}, read by the "
                        f"later uop #{uop.seq}", cycle, uop.seq)
            info = self._result_info.get(psrc)
            if info is not None:
                result_cycle, producer_cluster = info
                usable = result_cycle + self._forward_delay(
                    producer_cluster, cluster)
                if cycle < usable:
                    self._fail(
                        "SAN-FASTFORWARD",
                        f"operand p{psrc} consumed at cycle {cycle}, "
                        f"usable on cluster {cluster} only from cycle "
                        f"{usable} under the "
                        f"{self.config.fastforward!r} policy",
                        cycle, uop.seq)
        if uop.pdest is not None:
            self._result_info[uop.pdest] = (uop.result_cycle, cluster)

    def on_commit(self, uop, cycle: int) -> None:
        """Commit-time checks: destination retires, old mapping frees."""
        self.checks += 1
        if self.renamer.deadlock_moves != self._seen_moves:
            self._resync_architected(boundary=self.renamer.renamed)
        pdest = uop.pdest
        if pdest is not None:
            state = self._state[pdest]
            if state != STATE_INFLIGHT:
                self._fail(
                    "SAN-REG-STATE",
                    f"destination p{pdest} committed while {state}",
                    cycle, uop.seq)
            self._set_state(pdest, STATE_ARCH)
            self._writer_cluster.pop(pdest, None)
        pold = uop.pold
        if pold is not None:
            state = self._state[pold]
            if state == STATE_FREE:
                self._fail(
                    "SAN-REG-STATE",
                    f"previous mapping p{pold} freed twice (double free)",
                    cycle, uop.seq)
            if state == STATE_INFLIGHT:
                self._fail(
                    "SAN-REG-STATE",
                    f"previous mapping p{pold} freed while still in "
                    f"flight (free while live)", cycle, uop.seq)
            self._set_state(pold, STATE_FREE)
            self._result_info.pop(pold, None)

    def on_cycle_end(self, cycle: int) -> None:
        """Reconcile shadow free counts against the renamer's free lists."""
        self.checks += 1
        self._reconcile(cycle)

    def on_cycle_skip(self, cycle: int, horizon: int, stall: str) -> None:
        """Jump-aware variant of :meth:`on_cycle_end` for the event
        horizon: the processor skipped cycles ``[cycle, horizon)`` in one
        jump while rename stalled on ``stall``.

        No dispatch/issue/commit/rename event occurs inside a skipped
        range, so the register lifecycle is frozen and one reconciliation
        witnesses exactly what per-cycle checks over the whole range
        would; ``checks`` still advances by the number of cycles covered
        so the work accounting matches the reference stepper.
        """
        self.checks += horizon - cycle
        self._reconcile(horizon - 1)

    def _reconcile(self, cycle: int) -> None:
        if self.renamer.deadlock_moves != self._seen_moves:
            self._resync_architected(boundary=self.renamer.renamed)
        renamer = self.renamer
        for file_id in (0, 1):
            visible = renamer.free_registers(file_id)
            hidden = renamer.inaccessible_free(file_id)
            shadow = self._free_counts[file_id]
            for subset in range(self._num_subsets):
                actual = visible[subset] + hidden[subset]
                if actual != shadow[subset]:
                    self._fail(
                        "SAN-CONSERVATION",
                        f"file {file_id} subset {subset}: renamer holds "
                        f"{actual} free registers, lifecycle accounting "
                        f"expects {shadow[subset]} (leak or double "
                        f"presence)", cycle)

    # -- internal -------------------------------------------------------

    def _set_state(self, preg: int, state: str) -> None:
        file_id, subset = self.locate(preg)
        previous = self._state[preg]
        if previous == STATE_FREE:
            self._free_counts[file_id][subset] -= 1
        if state == STATE_FREE:
            self._free_counts[file_id][subset] += 1
        else:
            # Leaving the free pool starts a new lifecycle: the move
            # boundary (if any) belonged to the previous one.
            self._move_freed.pop(preg, None)
        self._state[preg] = state

    def _resync_architected(self, exclude: Optional[int] = None,
                            boundary: int = 0) -> None:
        """Re-derive ARCH/FREE states after deadlock-breaking moves.

        A move frees the choked subset's register and claims one from
        another subset's free list without any dispatch/commit event; the
        map table is the authority on where architected values live now.
        Registers that left the map but are *not* on a free list are
        previous mappings awaiting their commit-time free and keep their
        ARCH state.  ``exclude`` protects the pre-rename (free) state of
        a destination installed in the same renamer call that injected
        the moves.  ``boundary`` is the move's position in program
        order - the sequence number of the first uop renamed after it
        (the triggering uop's own ``seq`` on the dispatch path,
        ``renamer.renamed`` when the moves were witnessed between
        renames) - recorded per freed register so the use-after-free
        check can treat the move as a real uop.
        """
        self._seen_moves = self.renamer.deadlock_moves
        for reg_class in (self.renamer.int_class, self.renamer.fp_class):
            base = reg_class.global_base
            mapped_now = frozenset(
                base + local
                for local in reg_class.map_table.mapped_physicals())
            for offset in range(reg_class.num_physical):
                preg = base + offset
                if preg == exclude:
                    continue
                state = self._state[preg]
                if state == STATE_INFLIGHT:
                    continue
                if preg in mapped_now:
                    if state != STATE_ARCH:
                        self._set_state(preg, STATE_ARCH)
                elif state == STATE_ARCH:
                    subset = offset // reg_class.subset_size
                    if offset in reg_class.free_lists[subset]:
                        self._set_state(preg, STATE_FREE)
                        # Freed by the move itself, not by a commit:
                        # the move uop's program-order boundary decides
                        # which readers may still see the old copy.
                        self._move_freed[preg] = boundary

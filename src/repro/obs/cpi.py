"""CPI-stack cycle accounting: attribute every simulated cycle to a cause.

The paper's argument is a complexity/IPC trade, but an aggregate IPC
delta cannot say *where* a WSRS cycle goes - a steering conflict, a
subset-full rename stall, a shared-divider veto and an L2 miss all look
the same in the quotient.  :class:`CycleAccountant` splits the measured
cycles into the stack of :data:`CAUSES`, each mapped to the paper
mechanism it models (see ``docs/observability.md`` for the full
taxonomy).

The classification is *delta-based*: at the end of each cycle the
accountant looks at how the :class:`~repro.core.stats.SimulationStats`
counters moved during that cycle and applies a fixed priority order:

1. anything committed            -> ``base`` (a useful cycle);
2. deadlock-move slots charged   -> ``deadlock_moves``;
3. dispatched or issued, no commit -> ``ramp`` (the pipeline is filling
   or refilling - progress that has not reached commit yet);
4. otherwise exactly one front-end stall counter moved (the rename loop
   charges at most one kind per fully-stalled cycle) and the cycle is
   charged to it: ``branch``, then ``rob_full``/``cluster_full`` - both
   refined by the ROB head that is blocking progress (a memory op ->
   ``memory``, a multiply/divide -> ``muldiv``) - then
   ``rename_subset``;
5. no counter moved at all       -> ``drain`` (the end-of-trace drain is
   the only state where rename returns without charging).

Why this is gear-invariant (identical under the specialized gear's
event-horizon jump): a jump only replaces cycles in which nothing
commits, dispatches, issues or moves, the ROB head is frozen, and the
*same* stall counter is charged every cycle of the window - exactly one
classification rule matches every cycle of the window, and it is the
rule :meth:`CycleAccountant.jump_cause` applies once, multiplied by the
window length.  ``tests/test_obs_cpi.py`` pins both the gear equality
and the sum-to-total-cycles identity on the six section-5
configurations.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.trace.model import OpClass

#: The stack, in display order.  ``base`` at the bottom, pure overheads
#: on top; every measured cycle lands in exactly one bucket.
CAUSES: Tuple[str, ...] = (
    "base",            # at least one instruction committed
    "ramp",            # dispatch/issue progress that has not committed yet
    "branch",          # front end silent in a misprediction penalty window
    "rob_full",        # rename blocked on a full ROB (non-memory head)
    "cluster_full",    # steered cluster's window full (non-memory head)
    "rename_subset",   # destination subset has no free register (WS/WSRS)
    "deadlock_moves",  # front-end slots consumed by deadlock-breaking moves
    "muldiv",          # blocking window head is a multiply/divide
    "memory",          # blocking window head is a load/store (cache miss,
                       # memory-order serialisation)
    "drain",           # end-of-trace pipeline drain
)

#: Stats attributes whose per-cycle deltas drive the classification.
TRACKED_COUNTERS: Tuple[str, ...] = (
    "committed",
    "dispatched",
    "issued",
    "stall_branch_penalty",
    "stall_rob_full",
    "stall_cluster_full",
    "stall_no_register",
    "stall_deadlock_moves",
)


def refine_window_stall(rob_head, fallback: str) -> str:
    """Split a window-full stall by what the blocking ROB head is doing.

    A full ROB (or cluster window) is a symptom; the cause is whatever
    keeps the oldest instruction from completing.  A memory operation at
    the head means the window is closed behind a cache miss or the
    in-order address-computation rule (-> ``memory``); a multiply/divide
    head means a busy non-pipelined or shared unit (-> ``muldiv``);
    anything else keeps the structural label.
    """
    if rob_head is None:
        return fallback
    inst = rob_head.inst
    if inst.is_memory:
        return "memory"
    if inst.op is OpClass.IMULDIV:
        return "muldiv"
    return fallback


class CycleAccountant:
    """Accumulates the CPI stack for one measured slice."""

    def __init__(self) -> None:
        self.buckets: Dict[str, int] = {cause: 0 for cause in CAUSES}

    # -- classification ----------------------------------------------------

    @staticmethod
    def classify(deltas: Dict[str, int], rob_head) -> str:
        """The cause of one stepped cycle, from its counter deltas."""
        if deltas["committed"]:
            return "base"
        if deltas["stall_deadlock_moves"]:
            return "deadlock_moves"
        if deltas["dispatched"] or deltas["issued"]:
            return "ramp"
        if deltas["stall_branch_penalty"]:
            return "branch"
        if deltas["stall_rob_full"]:
            return refine_window_stall(rob_head, "rob_full")
        if deltas["stall_cluster_full"]:
            return refine_window_stall(rob_head, "cluster_full")
        if deltas["stall_no_register"]:
            return "rename_subset"
        return "drain"

    @staticmethod
    def jump_cause(stall: str, rob_head) -> str:
        """The (single) cause of every cycle in an event-horizon window.

        ``stall`` is the jump's stall tag - the same value that
        selects which stall counter the jump bulk-charges - so this maps
        exactly onto what :meth:`classify` would have returned for each
        cycle of the window.
        """
        if stall == "branch":
            return "branch"
        if stall == "rob":
            return refine_window_stall(rob_head, "rob_full")
        if stall == "cluster":
            return refine_window_stall(rob_head, "cluster_full")
        if stall == "exhausted":
            return "drain"
        raise ValueError(f"unknown event-horizon stall tag {stall!r}")

    # -- accumulation ------------------------------------------------------

    def charge(self, cause: str, cycles: int = 1) -> None:
        self.buckets[cause] += cycles

    @property
    def total_cycles(self) -> int:
        return sum(self.buckets.values())

    def reset(self) -> None:
        for cause in self.buckets:
            self.buckets[cause] = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.buckets)

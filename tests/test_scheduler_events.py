"""Old-heap vs event-driven scheduler: select-sequence equivalence.

The event-driven :class:`~repro.core.issue_queue.ClusterScheduler`
(calendar queue + scan-in-place ready list + hazard parking) must pick
exactly the micro-ops, in exactly the order, that the committed
heap-based design picked.  These tests drive both over
hypothesis-generated micro-op streams - random op classes, wake cycles
and in-order memory hazards, with micro-ops also arriving *while* the
queues drain - and require the per-cycle issue sequences to be
identical.  The heap replica below is the semantic oracle.
"""

import heapq
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.issue_queue import ClusterScheduler
from repro.core.lsq import MemoryOrderQueue
from repro.core.uop import InFlightUop
from repro.trace.model import (
    FP_CLASSES,
    MEMORY_CLASSES,
    OpClass,
    TraceInstruction,
)

#: Functional-unit mix of the oracle's cluster (the section-5 mix).
ISSUE_WIDTH = 4
NUM_ALUS = 2
NUM_LSUS = 1
NUM_FPUS = 1


class _OldHeapScheduler:
    """Replica of the pre-event-driven scheduler.

    Mirrors the committed heap design operation for operation: a
    pending heap keyed by wake cycle, a ready heap keyed by age, and a
    select that pops candidates and re-pushes structural-hazard losers,
    running an optional ``veto`` predicate per candidate per cycle.
    """

    def __init__(self) -> None:
        self._pending: List[Tuple[int, int, InFlightUop]] = []
        self._ready: List[Tuple[int, InFlightUop]] = []

    def enqueue(self, uop: InFlightUop, earliest_cycle: int) -> None:
        heapq.heappush(self._pending, (earliest_cycle, uop.seq, uop))

    def wake(self, cycle: int) -> None:
        pending = self._pending
        if not pending or pending[0][0] > cycle:
            return
        ready = self._ready
        woken: List[Tuple[int, InFlightUop]] = []
        while pending and pending[0][0] <= cycle:
            _, seq, uop = heapq.heappop(pending)
            woken.append((seq, uop))
        if len(woken) == 1:
            heapq.heappush(ready, woken[0])
        else:
            ready.extend(woken)
            heapq.heapify(ready)

    def select(self, cycle: int, veto=None) -> List[InFlightUop]:
        self.wake(cycle)
        ready = self._ready
        if not ready:
            return []
        picked: List[InFlightUop] = []
        rejected: List[Tuple[int, InFlightUop]] = []
        alus, lsus, fpus = NUM_ALUS, NUM_LSUS, NUM_FPUS
        budget = ISSUE_WIDTH
        while ready and budget:
            seq, uop = heapq.heappop(ready)
            op = uop.inst.op
            if op in MEMORY_CLASSES:
                available = lsus
            elif op in FP_CLASSES:
                available = fpus
            else:
                available = alus
            if not available:
                rejected.append((seq, uop))
                continue
            if veto is not None and veto(uop):
                rejected.append((seq, uop))
                continue
            if op in MEMORY_CLASSES:
                lsus -= 1
            elif op in FP_CLASSES:
                fpus -= 1
            else:
                alus -= 1
            picked.append(uop)
            budget -= 1
        for entry in rejected:
            heapq.heappush(ready, entry)
        return picked

    def is_empty(self) -> bool:
        return not self._pending and not self._ready


def _uop(seq: int, op: OpClass, mem_index: int = -1) -> InFlightUop:
    inst = TraceInstruction(op=op, dest=None, src1=None, src2=None)
    return InFlightUop(seq=seq, inst=inst, cluster=0, swapped=False,
                       psrc1=None, psrc2=None, pdest=None, pold=None,
                       dispatch_cycle=0, mem_index=mem_index)


_CLASSES = (OpClass.IALU, OpClass.IALU, OpClass.BRANCH, OpClass.FPADD,
            OpClass.FPDIV, OpClass.LOAD, OpClass.LOAD, OpClass.STORE)


@st.composite
def uop_streams(draw):
    """(op_class_index, wake_delay) pairs; delays scatter the wakes."""
    return draw(st.lists(
        st.tuples(st.integers(0, len(_CLASSES) - 1),
                  st.integers(0, 12)),
        min_size=1, max_size=80))


def _drive(stream):
    """Run one stream through both schedulers; compare every cycle.

    Micro-ops are dispatched over the first ``len(stream)`` cycles (one
    per cycle, mid-drain, like the pipeline does) instead of all up
    front, so wake/select interleave with enqueue.
    """
    old = _OldHeapScheduler()
    old_issued_upto = 0
    memorder = MemoryOrderQueue()
    new = ClusterScheduler(0, ISSUE_WIDTH, NUM_ALUS, NUM_LSUS, NUM_FPUS,
                           memorder=memorder)

    def old_veto(uop):
        return uop.mem_index >= 0 and uop.mem_index != old_issued_upto

    uops = []
    mem_index = 0
    for seq, (class_index, delay) in enumerate(stream):
        op = _CLASSES[class_index]
        index = -1
        if op in (OpClass.LOAD, OpClass.STORE):
            index = mem_index
            mem_index += 1
        uops.append((_uop(seq, op, mem_index=index), delay))

    total = len(uops)
    issued = 0
    picked_log = []
    cycle = 0
    while issued < total or not new.is_empty():
        assert cycle < 10_000, "stream does not drain"
        if cycle < total:
            uop, delay = uops[cycle]
            wake_cycle = cycle + 1 + delay
            old.enqueue(uop, wake_cycle)
            new.enqueue(uop, wake_cycle)
            if uop.mem_index >= 0:
                assert memorder.register() == uop.mem_index
        cycle += 1
        old_picked = [u.seq for u in old.select(cycle, veto=old_veto)]
        new_picked_uops = new.select(cycle)
        new_picked = [u.seq for u in new_picked_uops]
        assert old_picked == new_picked, (
            f"cycle {cycle}: old {old_picked} != new {new_picked}")
        picked_log.extend(new_picked)
        for uop in new_picked_uops:
            issued += 1
            if uop.mem_index >= 0:
                old_issued_upto += 1
                if uop.inst.op is OpClass.STORE:
                    memorder.issue_store(uop.seq, 8 * uop.seq,
                                         uop.mem_index)
                else:
                    memorder.issue_load(8 * uop.seq, uop.mem_index)
    assert old.is_empty()
    assert sorted(picked_log) == list(range(total))
    return picked_log


@given(uop_streams())
@settings(max_examples=120, deadline=None)
def test_select_sequences_match_the_old_heap_scheduler(stream):
    _drive(stream)


def test_memory_serialized_burst_matches():
    # All loads, all waking at once: the worst case for the old veto
    # polling and the case the parking lists were built for.
    _drive([(5, 0)] * 40)


def test_alu_storm_matches():
    # Far more ALU ops than ALUs: the scan-in-place ready list must
    # reject in the same seq order the heap pop/re-push cycle did.
    _drive([(0, 0)] * 50)


def test_every_class_at_once_matches():
    _drive([(i % len(_CLASSES), i % 5) for i in range(64)])

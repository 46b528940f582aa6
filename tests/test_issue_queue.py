"""Tests for the per-cluster scheduler (repro.core.issue_queue)."""

from repro.core.issue_queue import ClusterScheduler
from repro.core.lsq import MemoryOrderQueue
from repro.core.uop import InFlightUop
from repro.trace.model import OpClass, TraceInstruction


def make_uop(seq: int, op=OpClass.IALU, cluster: int = 0,
             mem_index: int = -1) -> InFlightUop:
    inst = TraceInstruction(op, dest=1, src1=2)
    return InFlightUop(seq, inst, cluster, False, None, None, 100 + seq,
                       None, dispatch_cycle=0, mem_index=mem_index)


def scheduler(width=2, alus=2, lsus=1, fpus=1,
              memorder=None) -> ClusterScheduler:
    return ClusterScheduler(0, width, alus, lsus, fpus, memorder=memorder)


class TestWakeAndSelect:
    def test_not_ready_before_wake_cycle(self):
        sched = scheduler()
        sched.enqueue(make_uop(0), earliest_cycle=5)
        assert sched.select(4) == []
        assert [u.seq for u in sched.select(5)] == [0]

    def test_oldest_first(self):
        sched = scheduler()
        sched.enqueue(make_uop(3), 1)
        sched.enqueue(make_uop(1), 1)
        sched.enqueue(make_uop(2), 1)
        picked = sched.select(1)
        assert [u.seq for u in picked] == [1, 2]

    def test_issue_width_limit(self):
        sched = scheduler(width=2)
        for seq in range(5):
            sched.enqueue(make_uop(seq), 1)
        assert len(sched.select(1)) == 2
        assert len(sched.select(2)) == 2
        assert len(sched.select(3)) == 1

    def test_late_waker_still_ordered_by_age(self):
        sched = scheduler()
        sched.enqueue(make_uop(5), 1)  # young, ready early
        sched.enqueue(make_uop(2), 3)  # old, ready later
        assert [u.seq for u in sched.select(1)] == [5]
        assert [u.seq for u in sched.select(3)] == [2]


class TestStructuralHazards:
    def test_single_lsu(self):
        sched = scheduler()
        sched.enqueue(make_uop(0, OpClass.LOAD), 1)
        sched.enqueue(make_uop(1, OpClass.STORE), 1)
        picked = sched.select(1)
        assert [u.seq for u in picked] == [0]
        assert [u.seq for u in sched.select(2)] == [1]

    def test_single_fpu(self):
        sched = scheduler()
        sched.enqueue(make_uop(0, OpClass.FPADD), 1)
        sched.enqueue(make_uop(1, OpClass.FPMUL), 1)
        assert len(sched.select(1)) == 1

    def test_mixed_units_fill_the_width(self):
        sched = scheduler()
        sched.enqueue(make_uop(0, OpClass.LOAD), 1)
        sched.enqueue(make_uop(1, OpClass.FPADD), 1)
        sched.enqueue(make_uop(2, OpClass.IALU), 1)
        picked = sched.select(1)
        assert [u.seq for u in picked] == [0, 1]  # width 2, oldest first

    def test_alu_limit(self):
        sched = scheduler(width=4, alus=2)
        for seq in range(4):
            sched.enqueue(make_uop(seq, OpClass.IALU), 1)
        assert len(sched.select(1)) == 2

    def test_rejected_uop_competes_again(self):
        sched = scheduler()
        sched.enqueue(make_uop(0, OpClass.LOAD), 1)
        sched.enqueue(make_uop(1, OpClass.LOAD), 1)
        sched.select(1)
        assert [u.seq for u in sched.select(2)] == [1]


class TestMemoryParking:
    """Memory ops blocked by the in-order address rule park with the
    MemoryOrderQueue instead of being re-polled every cycle."""

    def _mem_setup(self):
        memorder = MemoryOrderQueue()
        sched = scheduler(memorder=memorder)
        return memorder, sched

    def test_non_head_memory_op_parks_and_does_not_consume_budget(self):
        memorder, sched = self._mem_setup()
        memorder.register(), memorder.register()  # indices 0 and 1
        sched.enqueue(make_uop(0, OpClass.LOAD, mem_index=1), 1)
        sched.enqueue(make_uop(1), 1)
        sched.enqueue(make_uop(2), 1)
        picked = sched.select(1)
        assert [u.seq for u in picked] == [1, 2]
        assert 1 in sched._parked_mem

    def test_release_returns_the_parked_op_by_age(self):
        memorder, sched = self._mem_setup()
        memorder.register(), memorder.register()  # indices 0 and 1
        sched.enqueue(make_uop(5, OpClass.LOAD, mem_index=1), 1)
        assert sched.select(1) == []  # parked: index 0 still unissued
        sched.enqueue(make_uop(3), 2)  # older ALU op wakes later
        memorder.issue_store(seq=9, addr=64, mem_index=0)  # head resolves
        assert not sched._parked_mem  # released immediately
        # Released load re-enters the ready list by age: the older ALU
        # op still selects first.
        assert [u.seq for u in sched.select(2)] == [3, 5]

    def test_head_memory_op_never_parks(self):
        memorder, sched = self._mem_setup()
        memorder.register()  # index 0 is the memory-order head
        sched.enqueue(make_uop(0, OpClass.LOAD, mem_index=0), 1)
        assert [u.seq for u in sched.select(1)] == [0]
        assert not sched._parked_mem


class TestMuldivParking:
    def test_no_quota_parks_instead_of_consuming_budget(self):
        sched = scheduler()
        sched.enqueue(make_uop(0, OpClass.IMULDIV), 1)
        sched.enqueue(make_uop(1), 1)
        sched.enqueue(make_uop(2), 1)
        picked = sched.select(1, muldiv_quota=0)
        assert [u.seq for u in picked] == [1, 2]
        assert [e[0] for e in sched._parked_muldiv] == [0]

    def test_parked_muldiv_reenters_by_age_when_the_unit_frees(self):
        sched = scheduler()
        sched.enqueue(make_uop(4, OpClass.IMULDIV), 1)
        assert sched.select(1, muldiv_quota=0) == []
        sched.enqueue(make_uop(2), 2)  # older op wakes while parked
        picked = sched.select(2, muldiv_quota=1)
        assert [u.seq for u in picked] == [2, 4]
        assert not sched._parked_muldiv

    def test_quota_is_per_cycle(self):
        sched = scheduler(width=4, alus=4)
        sched.enqueue(make_uop(0, OpClass.IMULDIV), 1)
        sched.enqueue(make_uop(1, OpClass.IMULDIV), 1)
        assert [u.seq for u in sched.select(1, muldiv_quota=1)] == [0]
        assert [u.seq for u in sched.select(2, muldiv_quota=1)] == [1]

    def test_none_quota_means_untracked(self):
        sched = scheduler(width=4, alus=4)
        sched.enqueue(make_uop(0, OpClass.IMULDIV), 1)
        sched.enqueue(make_uop(1, OpClass.IMULDIV), 1)
        picked = sched.select(1, muldiv_quota=None)
        assert [u.seq for u in picked] == [0, 1]
        assert not sched._parked_muldiv


class TestNextWakeCycle:
    """Entries due at one cycle wake together, in age order; later ones
    stay pending until their own wake-up cycle."""

    def test_bulk_wake_preserves_age_order(self):
        sched = scheduler(width=8, alus=8)
        for seq in (6, 1, 4, 0, 3):
            sched.enqueue(make_uop(seq), 2)
        sched.enqueue(make_uop(9), 10)  # stays pending
        picked = sched.select(2)
        assert [u.seq for u in picked] == [0, 1, 3, 4, 6]
        assert sched.select(9) == []
        assert [u.seq for u in sched.select(10)] == [9]


class TestRejectedAgeOrdering:
    def test_rejected_uop_outranks_later_wakers(self):
        # A load rejected by the single LSU at cycle 1 competes again at
        # cycle 2 and must beat a younger load that only woke at cycle 2.
        sched = scheduler()
        sched.enqueue(make_uop(0, OpClass.LOAD), 1)
        sched.enqueue(make_uop(1, OpClass.LOAD), 1)
        sched.enqueue(make_uop(2, OpClass.LOAD), 2)
        assert [u.seq for u in sched.select(1)] == [0]
        assert [u.seq for u in sched.select(2)] == [1]
        assert [u.seq for u in sched.select(3)] == [2]

    def test_parked_mem_rejection_keeps_age_across_many_cycles(self):
        memorder = MemoryOrderQueue()
        sched = scheduler(memorder=memorder)
        for _ in range(3):
            memorder.register()  # indices 0..2; 0 never dispatched here
        sched.enqueue(make_uop(3, OpClass.LOAD, mem_index=1), 1)
        sched.enqueue(make_uop(7, OpClass.LOAD, mem_index=2), 1)
        for cycle in (1, 2, 3):
            assert sched.select(cycle) == []  # both parked behind 0
        sched.enqueue(make_uop(5, OpClass.IALU), 4)
        memorder.issue_store(seq=0, addr=8, mem_index=0)
        assert [u.seq for u in sched.select(4)] == [3, 5]
        memorder.issue_load(addr=8, mem_index=1)  # uop 3 issues...
        assert [u.seq for u in sched.select(5)] == [7]  # ...freeing 7


class TestOccupancy:
    def test_queued_counts_pending_and_ready(self):
        sched = scheduler()
        sched.enqueue(make_uop(0), 1)
        sched.enqueue(make_uop(1), 10)
        sched.wake(1)
        assert sched.queued == 2
        sched.select(1)
        assert sched.queued == 1

    def test_no_reinsertion_api_outside_select(self):
        # The wake/select contract is closed: hazard-blocked micro-ops
        # stay in the ready list or a parking list inside the scheduler
        # itself, and nothing else may re-add an already-picked uop
        # (the removed `reinsert_ready` bypass allowed double-issue).
        assert not hasattr(ClusterScheduler, "reinsert_ready")

    def test_parked_uops_stay_queued_and_issue_exactly_once(self):
        sched = scheduler()
        sched.enqueue(make_uop(0, OpClass.IMULDIV), 1)
        sched.enqueue(make_uop(1, OpClass.IMULDIV), 1)
        # no quota: both park, stay queued, nothing double-issues
        assert sched.select(1, muldiv_quota=0) == []
        assert sched.queued == 2
        assert sched.ready_count == 2  # parked ops are woken ops
        # unit freed: oldest first, one per cycle, each exactly once
        assert [u.seq for u in sched.select(2, muldiv_quota=1)] == [0]
        assert [u.seq for u in sched.select(3, muldiv_quota=1)] == [1]
        assert sched.is_empty()

    def test_is_empty(self):
        sched = scheduler()
        assert sched.is_empty()
        sched.enqueue(make_uop(0), 1)
        assert not sched.is_empty()

"""Tests for the free lists of repro.rename.freelist.

Implementation-1 renaming keeps each subset in one rotating deque
(:class:`RotatingFreeList`).  Its reference model is the explicit
section 2.2 machinery it replaced - a FIFO free list, a per-cycle
staging list and the shift-register :class:`RecyclingPipeline` below -
and a hypothesis property test drives both with random operation
sequences, requiring identical pick order and counts.  A second
property test pins the closed-form :meth:`RotatingFreeList.idle` jump
against stepping the same idle cycles one at a time.
"""

import copy

from collections import deque
from typing import Deque, Iterable, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FreeListUnderflow, RenameError
from repro.rename.freelist import FreeList, RotatingFreeList


def pick_many(free_list: FreeList, count: int) -> List[int]:
    """Oracle helper: remove and return ``count`` registers (all or
    nothing)."""
    if count > free_list.available:
        raise FreeListUnderflow(
            f"asked for {count} registers, {free_list.available} available")
    return [free_list.pick() for _ in range(count)]


def release_many(free_list: FreeList, registers: Iterable[int]) -> None:
    """Oracle helper: return ``registers`` to the tail, in order."""
    for register in registers:
        free_list.release(register)


class RecyclingPipeline:
    """Oracle: implementation 1's recycling pipeline as a shift register.

    A fixed-depth shift register of register batches.  Batches inserted
    at cycle *t* become visible in the free list again ``depth`` calls
    to :meth:`tick` later; registers inside count as :attr:`in_flight`.
    """

    def __init__(self, free_list: FreeList, depth: int) -> None:
        if depth < 1:
            raise ValueError("recycling pipeline depth must be >= 1")
        self.free_list = free_list
        self.depth = depth
        self._stages: Deque[List[int]] = deque(
            [[] for _ in range(depth)], maxlen=depth)
        self.in_flight = 0

    def insert(self, registers: Iterable[int]) -> None:
        """Feed registers into the first pipeline stage."""
        batch = list(registers)
        self._stages[-1].extend(batch)
        self.in_flight += len(batch)

    def tick(self) -> int:
        """Advance one cycle; returns how many registers were recycled."""
        recycled = self._stages.popleft()
        self._stages.append([])
        if recycled:
            release_many(self.free_list, recycled)
            self.in_flight -= len(recycled)
        return len(recycled)

    def drain(self) -> None:
        """Flush everything back to the free list (end-of-run cleanup)."""
        for stage in self._stages:
            release_many(self.free_list, stage)
            stage.clear()
        self.in_flight = 0


class _OracleSubset:
    """Oracle: one implementation-1 subset as pick / stage / recycle."""

    def __init__(self, registers: Iterable[int], depth: int) -> None:
        self.free = FreeList(registers)
        self.stage: List[int] = []
        self.pipe = RecyclingPipeline(self.free, depth)

    def begin_cycle(self, width: int) -> None:
        take = min(width - len(self.stage), self.free.available)
        if take > 0:
            self.stage.extend(pick_many(self.free, take))

    def take(self) -> int:
        return self.stage.pop(0)

    def recycle(self, register: int) -> None:
        self.pipe.insert((register,))

    def end_cycle(self) -> None:
        self.pipe.tick()
        if self.stage:
            self.pipe.insert(self.stage)
            self.stage.clear()


class TestFreeList:
    def test_fifo_order(self):
        flist = FreeList([1, 2, 3])
        assert flist.pick() == 1
        assert flist.pick() == 2
        flist.release(1)
        assert flist.pick() == 3
        assert flist.pick() == 1

    def test_available(self):
        flist = FreeList(range(5))
        assert flist.available == 5
        flist.pick()
        assert flist.available == 4

    def test_pick_many(self):
        flist = FreeList(range(6))
        assert pick_many(flist, 3) == [0, 1, 2]
        assert flist.available == 3

    def test_pick_many_all_or_nothing(self):
        flist = FreeList([7, 8])
        with pytest.raises(FreeListUnderflow):
            pick_many(flist, 3)
        assert flist.available == 2  # nothing consumed

    def test_underflow(self):
        flist = FreeList([])
        with pytest.raises(FreeListUnderflow):
            flist.pick()

    def test_release_many_and_contains(self):
        flist = FreeList([])
        release_many(flist, [4, 5])
        assert 4 in flist
        assert len(flist) == 2


class TestRecyclingPipeline:
    def test_registers_reappear_after_depth_ticks(self):
        flist = FreeList([])
        pipe = RecyclingPipeline(flist, depth=3)
        pipe.insert([10, 11])
        assert flist.available == 0
        assert pipe.tick() == 0
        assert pipe.tick() == 0
        assert pipe.tick() == 2  # third tick releases them
        assert flist.available == 2
        assert pipe.in_flight == 0

    def test_in_flight_accounting(self):
        pipe = RecyclingPipeline(FreeList([]), depth=2)
        pipe.insert([1])
        pipe.tick()
        pipe.insert([2, 3])
        assert pipe.in_flight == 3
        pipe.tick()  # releases [1]
        assert pipe.in_flight == 2

    def test_streaming_batches_keep_order(self):
        flist = FreeList([])
        pipe = RecyclingPipeline(flist, depth=2)
        pipe.insert([1])
        pipe.tick()
        pipe.insert([2])
        pipe.tick()  # releases 1
        pipe.tick()  # releases 2
        assert flist.pick() == 1
        assert flist.pick() == 2

    def test_drain_flushes_everything(self):
        flist = FreeList([])
        pipe = RecyclingPipeline(flist, depth=4)
        pipe.insert([1, 2])
        pipe.tick()
        pipe.insert([3])
        pipe.drain()
        assert flist.available == 3
        assert pipe.in_flight == 0

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            RecyclingPipeline(FreeList([]), depth=0)

    def test_depth_one_releases_next_tick(self):
        flist = FreeList([])
        pipe = RecyclingPipeline(flist, depth=1)
        pipe.insert([9])
        assert pipe.tick() == 1
        assert flist.available == 1


class TestRotatingFreeList:
    def test_staging_takes_the_head_of_the_free_list(self):
        flist = RotatingFreeList(range(10), depth=2)
        flist.begin_cycle(4)
        assert (flist.staged, flist.available) == (4, 6)
        assert [flist.take(), flist.take()] == [0, 1]
        assert flist.pick() == 4  # deadlock moves skip the staged group

    def test_unused_staged_registers_recycle_after_depth_cycles(self):
        flist = RotatingFreeList(range(6), depth=2)
        flist.begin_cycle(4)
        flist.take()
        flist.end_cycle()
        assert (flist.available, flist.in_flight) == (2, 3)
        flist.begin_cycle(4)
        flist.end_cycle()
        flist.begin_cycle(4)
        flist.end_cycle()
        # [1, 2, 3] re-entered behind [4, 5], which were staged and
        # recycled one cycle later and are still in transit.
        assert flist.available == 3
        assert flist.pick() == 1

    def test_take_without_staged_register_raises(self):
        flist = RotatingFreeList(range(3), depth=1)
        with pytest.raises(RenameError, match="staged"):
            flist.take()

    def test_pick_from_empty_free_region_underflows(self):
        flist = RotatingFreeList(range(2), depth=1)
        flist.begin_cycle(2)
        with pytest.raises(FreeListUnderflow):
            flist.pick()

    def test_contains_sees_only_the_free_region(self):
        flist = RotatingFreeList(range(4), depth=1)
        flist.begin_cycle(1)
        flist.recycle(9)
        assert 0 not in flist  # staged
        assert 1 in flist
        assert 9 not in flist  # in transit

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            RotatingFreeList([], depth=0)


_OPS = st.lists(
    st.tuples(st.sampled_from(["cycle", "rename", "commit", "move_pick",
                               "move_release"]),
              st.integers(min_value=0, max_value=8)),
    max_size=120)


class TestRotationMatchesPipelineOracle:
    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(min_value=0, max_value=24),
           depth=st.integers(min_value=1, max_value=5),
           width=st.integers(min_value=1, max_value=8),
           ops=_OPS)
    def test_random_sequences_agree(self, size, depth, width, ops):
        rotating = RotatingFreeList(range(size), depth)
        oracle = _OracleSubset(range(size), depth)
        held: List[int] = []  # registers renamed to or moved away
        in_cycle = False
        for op, arg in ops:
            if op == "cycle":
                # Close the open cycle (if any) and start the next one.
                if in_cycle:
                    rotating.end_cycle()
                    oracle.end_cycle()
                rotating.begin_cycle(width)
                oracle.begin_cycle(width)
                in_cycle = True
            elif op == "rename":
                if not oracle.stage:
                    with pytest.raises(RenameError):
                        rotating.take()
                    continue
                for _ in range(min(arg, len(oracle.stage)) or 1):
                    register = rotating.take()
                    assert register == oracle.take()
                    held.append(register)
            elif op == "commit" and held:
                register = held.pop(arg % len(held))
                rotating.recycle(register)
                oracle.recycle(register)
            elif op == "move_pick" and oracle.free.available:
                register = rotating.pick()
                assert register == oracle.free.pick()
                held.append(register)
            elif op == "move_release" and held:
                register = held.pop(arg % len(held))
                rotating.release(register)
                oracle.free.release(register)
            assert rotating.staged == len(oracle.stage)
            assert rotating.available == oracle.free.available
            assert rotating.in_flight == oracle.pipe.in_flight
        if in_cycle:
            rotating.end_cycle()
            oracle.end_cycle()
        # Drain both: the whole free order must match register for
        # register, including everything still in transit.
        for _ in range(depth):
            rotating.end_cycle()
            oracle.end_cycle()
        assert rotating.in_flight == 0
        order = [rotating.pick() for _ in range(rotating.available)]
        assert order == pick_many(oracle.free, oracle.free.available)


def _drive(rotating: RotatingFreeList, width: int, ops) -> None:
    """Run whole cycles of random take/recycle traffic; commit frees can
    make a batch larger than ``width``."""
    held: List[int] = []
    for takes, frees, picks in ops:
        rotating.begin_cycle(width)
        for _ in range(min(takes, rotating.staged)):
            held.append(rotating.take())
        for _ in range(min(picks, rotating.available)):
            held.append(rotating.pick())
        for _ in range(min(frees, len(held))):
            rotating.recycle(held.pop(0))
        rotating.end_cycle()


def _state(rotating: RotatingFreeList):
    return (list(rotating._queue), rotating.avail, rotating.staged,
            list(rotating.batches))


def _step_idle(rotating: RotatingFreeList, width: int, cycles: int):
    """Oracle: ``cycles`` explicit idle cycles; returns the tally of
    free counts they end with."""
    counts = {}
    for _ in range(cycles):
        rotating.begin_cycle(width)
        rotating.end_cycle()
        counts[rotating.available] = counts.get(rotating.available, 0) + 1
    return counts


_CYCLE_OPS = st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                                st.integers(min_value=0, max_value=12),
                                st.integers(min_value=0, max_value=1)),
                      max_size=30)


class TestIdleMatchesStepping:
    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(min_value=0, max_value=40),
           depth=st.integers(min_value=1, max_value=5),
           width=st.integers(min_value=1, max_value=9),
           ops=_CYCLE_OPS,
           cycles=st.integers(min_value=0, max_value=60))
    def test_idle_equals_repeated_idle_cycles(self, size, depth, width,
                                              ops, cycles):
        jumped = RotatingFreeList(range(size), depth)
        _drive(jumped, width, ops)
        stepped = copy.deepcopy(jumped)
        before = _state(jumped)
        counts = jumped.idle_free_counts(width, cycles)
        assert _state(jumped) == before  # the tally is read-only
        jumped.idle(width, cycles)
        assert counts == _step_idle(stepped, width, cycles)
        assert _state(jumped) == _state(stepped)

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(min_value=0, max_value=60),
           depth=st.integers(min_value=1, max_value=5),
           width=st.integers(min_value=1, max_value=9),
           ops=_CYCLE_OPS)
    def test_transient_settles_within_two_depths(self, size, depth, width,
                                                 ops):
        # The bound that keeps idle() O(depth): after 2 * depth idle
        # cycles the recurrence is at its fixed point or a pure shift.
        flist = RotatingFreeList(range(size), depth)
        _drive(flist, width, ops)
        flist.idle(width, 2 * depth)
        batches = list(flist.batches)
        fixed = flist.avail >= width and batches == [width] * depth
        shift = flist.avail <= width and max(batches) <= width
        assert fixed or shift

    def test_zero_cycles_is_a_no_op(self):
        flist = RotatingFreeList(range(7), depth=2)
        _drive(flist, 3, [(2, 0, 0), (0, 1, 0)])
        before = _state(flist)
        flist.idle(3, 0)
        assert _state(flist) == before
        assert flist.idle_free_counts(3, 0) == {}

    def test_fixed_point_rotates_by_width_each_cycle(self):
        flist = RotatingFreeList(range(20), depth=2)
        _step_idle(flist, 4, 2)  # every batch is now full
        assert (flist.avail, list(flist.batches)) == (12, [4, 4])
        stepped = copy.deepcopy(flist)
        flist.idle(4, 1_001)
        _step_idle(stepped, 4, 1_001)
        assert _state(flist) == _state(stepped)

    def test_pure_shift_has_period_depth_plus_one(self):
        # Fewer registers than one staged group: the whole subset
        # circulates, so every depth + 1 cycles restore the state.
        flist = RotatingFreeList(range(3), depth=2)
        start = _state(flist)
        flist.idle(8, 3 * 7)
        assert _state(flist) == start
        assert flist.idle_free_counts(8, 3) == {0: 2, 3: 1}

    def test_commit_batch_larger_than_width_drains_first(self):
        flist = RotatingFreeList(range(2), depth=2)
        _drive(flist, 2, [(2, 0, 0)])
        flist.begin_cycle(2)
        for register in range(10, 17):
            flist.recycle(register)
        flist.end_cycle()
        assert max(flist.batches) > 2
        stepped = copy.deepcopy(flist)
        flist.idle(2, 40)
        _step_idle(stepped, 2, 40)
        assert _state(flist) == _state(stepped)

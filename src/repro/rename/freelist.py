"""Free lists of physical registers for both renaming implementations.

Section 2.2 of the paper describes two implementations of Task (B) -
assigning a free physical register to every renamed instruction - under
register write specialization:

* **Implementation 1** picks ``N`` (the rename width) registers from
  *every* subset's free list each cycle and uses the cluster assignment to
  select one per instruction.  The many unused registers must be
  *recycled*: they re-enter the free list only after flowing through a
  multi-stage recycling pipeline (build lists / pack / merge / append).
  While in flight through that pipeline they are inaccessible - the
  "residual problem" the paper notes.  :class:`RotatingFreeList` models
  one subset of this scheme.

* **Implementation 2** first computes, from the subset target vector, the
  exact number of registers needed from each free list and picks only
  those.  No recycling is needed; the price is a longer renaming pipeline
  (captured in the configuration's misprediction penalty).  Its subsets
  are plain FIFO :class:`FreeList` objects.

Registers freed at commit also traverse the recycling pipeline under
implementation 1; under implementation 2 they return to the free list
directly.

The rotating-deque representation
---------------------------------
Implementation 1 moves every register of a subset through the same
cycle - staged, then (unused) recycled, then free again - so one deque
holds all of them, laid out as::

    [ staged | free | in-transit batches, oldest first ]

and three pieces of bookkeeping mark the regions: ``staged`` (the
registers picked this cycle), ``avail`` (staged + free) and a deque of
``depth`` batch sizes for the recycling pipeline.  The per-cycle work
then becomes integer arithmetic plus one rotation: picking the staged
group is ``staged = min(width, avail)``, renaming is ``popleft()``, a
commit-time free is ``append()`` into the newest batch, and the end of
the cycle releases the oldest batch (``avail`` grows over it) and
rotates the unused staged registers to the tail as the newest batch.
No register ever changes its relative order, so the free-list order is
exactly that of an explicit pick / stage / shift-register pipeline.

Idle windows
------------
A cycle in which nothing renames and nothing commits only stages and
recycles: with ``s = min(width, avail)`` it sets ``avail += batches[0]
- s``, shifts the batches and appends ``s`` as the newest one, and
rotates the whole deque by ``s``.  Within at most ``2 * depth`` such
cycles the recurrence settles into one of two regimes - a *fixed point*
(``avail >= width`` and every batch equal to ``width``: each cycle
rotates by ``width``) or a *pure shift* (``avail <= width`` and every
batch at most ``width``: the state has period ``depth + 1`` and rotates
by the subset's total per period) - so :meth:`RotatingFreeList.idle`
advances any number of idle cycles with O(depth) integer steps and one
rotation.  The specialized gear's event-horizon jump uses it to skip
dead windows.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Dict, Iterable, Optional, Tuple

from repro.errors import FreeListUnderflow, RenameError


class FreeList:
    """FIFO free list of physical register identifiers."""

    def __init__(self, registers: Iterable[int]) -> None:
        self._queue: Deque[int] = deque(registers)

    @property
    def available(self) -> int:
        return len(self._queue)

    def pick(self) -> int:
        """Remove and return one free register."""
        if not self._queue:
            raise FreeListUnderflow("free list is empty")
        return self._queue.popleft()

    def release(self, register: int) -> None:
        """Return one register to the tail of the list."""
        self._queue.append(register)

    def __contains__(self, register: int) -> bool:
        return register in self._queue

    def __len__(self) -> int:
        return len(self._queue)


class RotatingFreeList:
    """One subset's implementation-1 registers as a single rotating deque.

    Holds every non-architected, non-in-flight register of the subset:
    the group staged for renaming this cycle, the free list proper and
    the ``depth``-stage recycling pipeline (see the module docstring for
    the layout).  :attr:`available` and :meth:`pick`/:meth:`release`
    cover the free region only, so deadlock-breaking moves treat this
    object exactly like a :class:`FreeList`.
    """

    def __init__(self, registers: Iterable[int], depth: int) -> None:
        if depth < 1:
            raise ValueError("recycling pipeline depth must be >= 1")
        self._queue: Deque[int] = deque(registers)
        #: Staged plus free registers (the deque's first ``avail``).
        self.avail = len(self._queue)
        #: Registers picked for renaming this cycle (the first ``staged``).
        self.staged = 0
        #: Sizes of the in-transit batches, oldest first.
        self.batches: Deque[int] = deque([0] * depth)

    # -- per-cycle protocol ---------------------------------------------

    def begin_cycle(self, width: int) -> None:
        """Stage up to ``width`` registers from the head of the free list."""
        avail = self.avail
        self.staged = width if avail > width else avail

    def take(self) -> int:
        """Rename to the oldest staged register."""
        if not self.staged:
            raise RenameError("rename without available staged "
                              "register (caller bug)")
        self.staged -= 1
        self.avail -= 1
        return self._queue.popleft()

    def recycle(self, register: int) -> None:
        """Feed a commit-time free into the newest recycling batch."""
        self._queue.append(register)
        self.batches[-1] += 1

    def end_cycle(self) -> None:
        """Release the oldest batch; the unused staged group becomes the
        newest one."""
        batches = self.batches
        unused = self.staged
        self.avail += batches.popleft() - unused
        batches.append(unused)
        if unused:
            self._queue.rotate(-unused)
            self.staged = 0

    def idle(self, width: int, cycles: int) -> None:
        """Advance ``cycles`` cycles in which nothing renames or commits.

        Equivalent to ``cycles`` repeats of ``begin_cycle(width);
        end_cycle()`` (see "Idle windows" in the module docstring).
        Called between cycles, when nothing is staged.
        """
        self.avail, rotation = _advance_idle(self.avail, self.batches,
                                             width, cycles)
        self._queue.rotate(-rotation)

    def idle_free_counts(self, width: int, cycles: int) -> Dict[int, int]:
        """How many of the next ``cycles`` idle cycles end with each
        :attr:`available` count (read-only: the state is not advanced)."""
        counts: Dict[int, int] = {}
        _advance_idle(self.avail, deque(self.batches), width, cycles, counts)
        return counts

    # -- free-region view (deadlock moves, introspection) ---------------

    @property
    def available(self) -> int:
        """Free registers, excluding the staged group and the pipeline."""
        return self.avail - self.staged

    @property
    def in_flight(self) -> int:
        """Registers still traversing the recycling pipeline."""
        return len(self._queue) - self.avail

    def pick(self) -> int:
        """Remove and return the oldest free (unstaged) register."""
        if self.avail == self.staged:
            raise FreeListUnderflow("free list is empty")
        register = self._queue[self.staged]
        del self._queue[self.staged]
        self.avail -= 1
        return register

    def release(self, register: int) -> None:
        """Return one register to the tail of the free region."""
        self._queue.insert(self.avail, register)
        self.avail += 1

    def __contains__(self, register: int) -> bool:
        return register in islice(self._queue, self.staged, self.avail)


def _advance_idle(avail: int, batches: Deque[int], width: int, cycles: int,
                  counts: Optional[Dict[int, int]] = None
                  ) -> Tuple[int, int]:
    """Run the idle-cycle recurrence for ``cycles`` cycles.

    Shifts ``batches`` in place and returns ``(avail, rotation)``: the
    new staged-plus-free count and the total number of positions the
    deque rotates left.  When ``counts`` is given, it tallies the
    ``avail`` value each cycle ends with.
    """
    depth = len(batches)
    rotation = 0
    while cycles:
        if avail >= width and batches.count(width) == depth:
            # Fixed point: every further cycle stages and recycles width.
            rotation += width * cycles
            if counts is not None:
                counts[avail] = counts.get(avail, 0) + cycles
            break
        if avail <= width and max(batches) <= width:
            # Pure shift: (avail, *batches) rotates by one slot a cycle.
            laps, cycles = divmod(cycles, depth + 1)
            if laps:
                rotation += laps * (avail + sum(batches))
                if counts is not None:
                    for value in (avail, *batches):
                        counts[value] = counts.get(value, 0) + laps
        if not cycles:
            break
        staged = width if avail > width else avail
        avail += batches.popleft() - staged
        batches.append(staged)
        rotation += staged
        cycles -= 1
        if counts is not None:
            counts[avail] = counts.get(avail, 0) + 1
    return avail, rotation

"""Register renaming with optional write specialization.

One :class:`Renamer` manages both register classes (integer and floating
point, separate physical files as on the simulated SPARC machines).  Within
each class the physical registers are numbered consecutively by subset, so
``subset = physical // subset_size`` - a conventional machine is simply the
degenerate case of a single subset.

The renamer implements the three-task decomposition of section 2.2:

* Task (A), dependency propagation inside a rename group, is implicit:
  instructions are renamed in program order, one at a time, so source
  lookups always see all older mappings.
* Task (B), free-register assignment, follows either *implementation 1*
  (pick the full rename width from every subset's free list each cycle,
  recycle the unused registers through a pipeline) or *implementation 2*
  (pick the exact per-subset counts).  The choice is
  ``MachineConfig.rename_impl``.  Implementation 1 keeps each subset in
  one rotating deque - staged group, free list and recycling pipeline
  back to back (:class:`repro.rename.freelist.RotatingFreeList`) - so
  its per-cycle pick / stage / recycle is integer bookkeeping plus one
  rotation; implementation 2 uses plain FIFO free lists.
* Task (C), map-table read/update, is :class:`repro.rename.maptable.MapTable`.

Under write specialization the *cluster* executing an instruction fixes the
subset its destination register comes from; the caller therefore allocates
the instruction to a cluster **before** renaming it, exactly as the paper
assumes ("instructions are first allocated to clusters then renamed").

Global register identifiers
---------------------------
The simulator core tracks readiness with one flat array indexed by a
*global* physical register id: integer physical ``p`` has global id ``p``;
floating-point physical ``p`` has global id ``int_physical_registers + p``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig
from repro.errors import RenameDeadlockError, RenameError
from repro.rename.freelist import FreeList, RotatingFreeList
from repro.rename.maptable import MapTable

INT_FILE = 0
FP_FILE = 1


class _RegisterClass:
    """Renaming state for one register class (one physical file)."""

    def __init__(self, num_logical: int, num_physical: int,
                 num_subsets: int, global_base: int,
                 recycle_depth: Optional[int] = None) -> None:
        if num_physical % num_subsets:
            raise RenameError("physical registers must split evenly")
        self.num_logical = num_logical
        self.num_physical = num_physical
        self.num_subsets = num_subsets
        self.subset_size = num_physical // num_subsets
        self.global_base = global_base

        # Architected registers start spread round-robin across subsets:
        # logical i maps to the i//num_subsets-th register of subset
        # i % num_subsets.  This mirrors the steady state reached after a
        # few thousand instructions and keeps the deadlock analysis simple.
        initial: List[int] = []
        per_subset_used = [0] * num_subsets
        for logical in range(num_logical):
            subset = logical % num_subsets
            offset = per_subset_used[subset]
            if offset >= self.subset_size:
                raise RenameError(
                    f"subset of {self.subset_size} registers cannot hold "
                    f"its share of {num_logical} architected registers")
            per_subset_used[subset] += 1
            initial.append(subset * self.subset_size + offset)

        self.map_table = MapTable(num_logical, initial)
        mapped = set(initial)
        free = [[reg for reg in range(s * self.subset_size,
                                      (s + 1) * self.subset_size)
                 if reg not in mapped]
                for s in range(num_subsets)]
        # Implementation 1 (a recycling depth given) rotates each subset's
        # staged/free/recycling registers through one deque.
        self.free_lists: List = (
            [FreeList(regs) for regs in free] if recycle_depth is None
            else [RotatingFreeList(regs, recycle_depth) for regs in free])
        self.outstanding_writes = [0] * num_subsets

    def subset_of(self, physical: int) -> int:
        return physical // self.subset_size

    def subset_bounds(self, subset: int) -> Tuple[int, int]:
        low = subset * self.subset_size
        return low, low + self.subset_size


class Renamer:
    """Renames a flat-logical-register trace for a given machine config."""

    def __init__(self, config: MachineConfig) -> None:
        config.validate()
        self.config = config
        num_subsets = config.num_subsets
        self.impl = config.rename_impl
        depth = config.recycle_pipeline_depth if self.impl == 1 else None
        self.int_class = _RegisterClass(
            config.int_logical_registers, config.int_physical_registers,
            num_subsets, global_base=0, recycle_depth=depth)
        self.fp_class = _RegisterClass(
            config.fp_logical_registers, config.fp_physical_registers,
            num_subsets, global_base=config.int_physical_registers,
            recycle_depth=depth)
        self._classes = (self.int_class, self.fp_class)
        self._width = config.front_width
        # Every implementation-1 subset of both files, for the per-cycle
        # pick/recycle work (empty under implementation 2).
        self._rotating: List[RotatingFreeList] = (
            [flist for cls in self._classes for flist in cls.free_lists]
            if self.impl == 1 else [])

        self.renamed = 0
        self.deadlock_moves = 0
        self.reg_stalls = 0

    # -- register-class routing -------------------------------------------

    def _route(self, logical_flat: int) -> Tuple[_RegisterClass, int, int]:
        """(register class, class-local logical index, file id)."""
        boundary = self.config.int_logical_registers
        if logical_flat < boundary:
            return self.int_class, logical_flat, INT_FILE
        return self.fp_class, logical_flat - boundary, FP_FILE

    def subset_of_logical(self, logical_flat: int) -> int:
        """Subset currently holding ``logical_flat`` (the f/s vector read).

        On a WSRS machine this is the 2-bit value ``2*f + s`` of section
        3.2 that drives cluster allocation.
        """
        cls, logical, _ = self._route(logical_flat)
        return cls.subset_of(cls.map_table.lookup(logical))

    def lookup_global(self, logical_flat: int) -> int:
        """Global physical id currently mapped to ``logical_flat``."""
        cls, logical, _ = self._route(logical_flat)
        return cls.global_base + cls.map_table.lookup(logical)

    # -- per-cycle bookkeeping (implementation 1) ---------------------------

    def begin_cycle(self) -> None:
        """Start-of-cycle work: implementation 1 picks its register groups.

        Under implementation 1, ``front_width`` registers are speculatively
        picked from *every* subset's free list; renaming then draws from
        these staged groups.  Unused staged registers are recycled at
        :meth:`end_cycle`.
        """
        width = self._width
        for flist in self._rotating:
            flist.begin_cycle(width)

    def end_cycle(self) -> None:
        """End-of-cycle work: advance the recycling pipelines and recycle
        the unused staged registers."""
        for flist in self._rotating:
            flist.end_cycle()

    def idle_free_counts(self, file_id: int,
                         cycles: int) -> List[Dict[int, int]]:
        """Per subset, how many of the next ``cycles`` idle cycles end
        with each :meth:`free_registers` count (read-only)."""
        free_lists = self._classes[file_id].free_lists
        if self.impl != 1:
            return [{flist.available: cycles} for flist in free_lists]
        return [flist.idle_free_counts(self._width, cycles)
                for flist in free_lists]

    # -- availability ---------------------------------------------------------

    def _accessible(self, cls_index: int, subset: int) -> int:
        """Registers of a subset usable as rename targets *this cycle*."""
        flist = self._classes[cls_index].free_lists[subset]
        if self.impl == 1:
            return flist.staged
        return flist.available

    def can_rename(self, dest_flat: Optional[int], cluster: int) -> bool:
        """Whether a destination in ``dest_flat`` can be renamed now.

        ``cluster`` determines the subset under write specialization; it is
        ignored on a conventional machine.  Instructions without a
        destination always rename.
        """
        if dest_flat is None:
            return True
        cls, _, file_id = self._route(dest_flat)
        subset = cluster if cls.num_subsets > 1 else 0
        if self._accessible(file_id, subset) > 0:
            return True
        self.reg_stalls += 1
        self._maybe_handle_deadlock(file_id, subset)
        return self._accessible(file_id, subset) > 0

    # -- renaming ----------------------------------------------------------

    def rename(self, inst, cluster: int):
        """Rename one instruction already allocated to ``cluster``.

        Returns ``(psrc1, psrc2, pdest, pold)`` as *global* physical ids
        (``None`` for absent operands / destinations).  ``pold`` must be
        passed back to :meth:`commit_free` when the instruction commits.

        The caller must have confirmed :meth:`can_rename`; running out of
        registers here raises :class:`RenameError`.
        """
        psrc1 = (self.lookup_global(inst.src1)
                 if inst.src1 is not None else None)
        psrc2 = (self.lookup_global(inst.src2)
                 if inst.src2 is not None else None)
        pdest = pold = None
        if inst.dest is not None:
            cls, logical, file_id = self._route(inst.dest)
            subset = cluster if cls.num_subsets > 1 else 0
            flist = cls.free_lists[subset]
            local = flist.take() if self.impl == 1 else flist.pick()
            old_local = cls.map_table.install(logical, local)
            cls.outstanding_writes[subset] += 1
            pdest = cls.global_base + local
            pold = cls.global_base + old_local
        self.renamed += 1
        return psrc1, psrc2, pdest, pold

    def commit_free(self, pold_global: int) -> None:
        """Return the previous mapping of a committed instruction."""
        cls_index = int(pold_global >= self.fp_class.global_base)
        cls = self._classes[cls_index]
        local = pold_global - cls.global_base
        subset = cls.subset_of(local)
        if self.impl == 1:
            cls.free_lists[subset].recycle(local)
        else:
            cls.free_lists[subset].release(local)

    def retire_write(self, pdest_global: int) -> None:
        """Account the commit of an instruction that wrote ``pdest``."""
        cls_index = int(pdest_global >= self.fp_class.global_base)
        cls = self._classes[cls_index]
        subset = cls.subset_of(pdest_global - cls.global_base)
        cls.outstanding_writes[subset] -= 1

    # -- deadlock (section 2.3) ---------------------------------------------

    def _subset_deadlocked(self, file_id: int, subset: int) -> bool:
        """All physical registers of the subset hold architected values and
        nothing in flight will ever free one."""
        cls = self._classes[file_id]
        flist = cls.free_lists[subset]
        if flist.available:
            return False
        if self.impl == 1 and (flist.staged or flist.in_flight):
            return False
        if cls.outstanding_writes[subset]:
            return False
        low, high = cls.subset_bounds(subset)
        mapped = cls.map_table.count_mapped_in_range(low, high)
        return mapped >= cls.subset_size

    def _maybe_handle_deadlock(self, file_id: int, subset: int) -> int:
        """Detect and, per policy, break the section 2.3 deadlock.

        Returns the number of rebalancing moves injected (workaround (b):
        "moves that map some of the logical registers onto the other
        register subsets are then issued").  Each move costs the caller a
        front-end bubble; the data movement itself is not timed (the value
        merely changes physical location).
        """
        policy = self.config.deadlock_policy
        if policy == "none" or not self._subset_deadlocked(file_id, subset):
            return 0
        if policy == "raise":
            raise RenameDeadlockError(
                f"register subset {subset} of file {file_id} is fully "
                f"architected and can no longer be renamed to")
        return self._inject_moves(file_id, subset)

    def _inject_moves(self, file_id: int, subset: int) -> int:
        cls = self._classes[file_id]
        low, high = cls.subset_bounds(subset)
        moves = 0
        # Move logical registers out of the choked subset until at least
        # one physical register is free again.
        for logical in range(cls.num_logical):
            mapped = cls.map_table.lookup(logical)
            if not low <= mapped < high:
                continue
            target = self._pick_other_subset(cls, subset, file_id)
            if target is None:
                break
            new_local = cls.free_lists[target].pick()
            cls.map_table.install(logical, new_local)
            cls.free_lists[subset].release(mapped)
            moves += 1
            self.deadlock_moves += 1
            if cls.free_lists[subset].available >= 2:
                break
        if not moves:
            raise RenameDeadlockError(
                "deadlock could not be broken: every subset is full")
        return moves

    @staticmethod
    def _pick_other_subset(cls: _RegisterClass, subset: int,
                           file_id: int) -> Optional[int]:
        best, best_free = None, 0
        for candidate, flist in enumerate(cls.free_lists):
            if candidate == subset:
                continue
            if flist.available > best_free:
                best, best_free = candidate, flist.available
        return best

    # -- introspection --------------------------------------------------------

    def free_registers(self, file_id: int) -> List[int]:
        """Free-register count per subset (excludes staged/recycling)."""
        return [flist.available
                for flist in self._classes[file_id].free_lists]

    def inaccessible_free(self, file_id: int) -> List[int]:
        """Per-subset count of free-but-unrenamable registers.

        Under implementation 1 these are the speculatively staged groups
        plus everything still traversing the recycling pipelines (the
        "residual problem" of section 2.2); implementation 2 has none.
        Together with :meth:`free_registers` this accounts for every
        physical register that is neither architected nor in flight -
        the conservation identity the pipeline sanitizer checks.
        """
        cls = self._classes[file_id]
        if self.impl != 1:
            return [0] * cls.num_subsets
        return [flist.staged + flist.in_flight
                for flist in cls.free_lists]

    @property
    def total_global_registers(self) -> int:
        return (self.config.int_physical_registers
                + self.config.fp_physical_registers)

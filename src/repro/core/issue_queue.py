"""Per-cluster wake-up and select machinery (event-driven).

Each cluster owns a :class:`ClusterScheduler`.  Dispatched micro-ops wait
in a *calendar queue* on the pending side: a dict mapping wake-up cycle
(the max over operands of producer-result cycle plus the inter-cluster
forwarding delay) to the list of micro-ops waking that cycle, plus a
sorted key list whose head feeds :meth:`next_wake_cycle` (the
specialized gear's event-horizon jump reads the same head directly).
Bulk wakes drain whole buckets, O(woken), with no heapify storms.

Woken entries land in a *ready list* sorted by age (sequence number).
Select scans it in place: micro-ops that lose selection to a structural
hazard simply stay put and are re-scanned in identical seq order next
cycle - no pop/re-push round trip.  This mirrors an oldest-first select
tree.

Hazards that used to be polled through a per-cycle ``veto`` predicate
are now *parked* and released on the state transition that clears them:

* a memory micro-op whose address cannot yet be computed (the in-order
  address rule, :mod:`repro.core.lsq`) parks on a per-mem-index wait
  list; :class:`~repro.core.lsq.MemoryOrderQueue` releases it the moment
  the blocking older memory op issues.  At most one memory micro-op (the
  current memory-order head) is ever in the ready list.
* an IMULDIV micro-op that finds its (shared or non-pipelined)
  multiply/divide unit busy parks on a per-cluster list and re-enters
  the ready list, by age, once the unit's ``busy_until`` has passed.

Both mechanisms run O(transitions) instead of O(blocked x cycles).

The *timing* semantics of wake-up here are exactly the paper's: a
micro-op's operand becomes usable on cluster ``c`` at
``producer.result_cycle + forward_delay(producer_cluster, c)``, so a
single-cycle producer feeds a same-cluster consumer back-to-back, while a
cross-cluster consumer loses one cycle (the ``intra`` fast-forwarding
policy; section 4.3.1's other policies change ``forward_delay``).
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.uop import InFlightUop
from repro.trace.model import FP_CLASSES, MEMORY_CLASSES, OpClass

if TYPE_CHECKING:  # avoids an import cycle at runtime
    from repro.core.lsq import MemoryOrderQueue


class ClusterScheduler:
    """Wake-up/select state for one cluster."""

    def __init__(self, cluster_id: int, issue_width: int, num_alus: int,
                 num_lsus: int, num_fpus: int,
                 memorder: "Optional[MemoryOrderQueue]" = None) -> None:
        self.cluster_id = cluster_id
        self.issue_width = issue_width
        self.num_alus = num_alus
        self.num_lsus = num_lsus
        self.num_fpus = num_fpus
        self.memorder = memorder
        # Calendar queue: wake cycle -> [(seq, uop), ...] in arrival order.
        self._buckets: Dict[int, List[Tuple[int, InFlightUop]]] = {}
        # Sorted bucket keys; head is the next wake event.
        self._bucket_keys: List[int] = []
        self._pending_size = 0
        # (seq, uop) sorted by seq - woken, competing for select.
        self._ready: List[Tuple[int, InFlightUop]] = []
        # mem_index -> (seq, uop): woken memory ops waiting for the
        # in-order address rule; released by MemoryOrderQueue.
        self._parked_mem: Dict[int, Tuple[int, InFlightUop]] = {}
        # (seq, uop): woken IMULDIV ops waiting for a busy unit.
        self._parked_muldiv: List[Tuple[int, InFlightUop]] = []
        self.inflight = 0  # dispatched but not committed (window occupancy)

    # -- dispatch / wake-up ------------------------------------------------

    def enqueue(self, uop: InFlightUop, earliest_cycle: int) -> None:
        """Insert a micro-op whose operands' timing is fully known."""
        bucket = self._buckets.get(earliest_cycle)
        if bucket is None:
            self._buckets[earliest_cycle] = [(uop.seq, uop)]
            insort(self._bucket_keys, earliest_cycle)
        else:
            bucket.append((uop.seq, uop))
        self._pending_size += 1

    def wake(self, cycle: int) -> None:
        """Drain every calendar bucket due by ``cycle``.

        Non-memory entries (and the memory-order head) merge into the
        ready list; other memory entries park with the memory-order
        queue until their turn to compute an address arrives.
        """
        keys = self._bucket_keys
        if not keys or keys[0] > cycle:
            return
        buckets = self._buckets
        ready = self._ready
        memorder = self.memorder
        issued_upto = memorder.issued_memory_ops if memorder else -1
        merged = False
        due = 0
        limit = len(keys)
        while due < limit and keys[due] <= cycle:
            for entry in buckets.pop(keys[due]):
                self._pending_size -= 1
                mem_index = entry[1].mem_index
                if mem_index >= 0 and memorder is not None:
                    if mem_index == issued_upto:
                        ready.append(entry)
                        merged = True
                    else:
                        self._parked_mem[mem_index] = entry
                        memorder.park(mem_index, self)
                else:
                    ready.append(entry)
                    merged = True
            due += 1
        del keys[:due]
        if merged:
            ready.sort()

    def release_mem(self, mem_index: int) -> None:
        """The in-order address rule cleared: un-park this memory op."""
        insort(self._ready, self._parked_mem.pop(mem_index))

    def next_wake_cycle(self) -> Optional[int]:
        """Earliest wake-up cycle among pending entries (None if empty).

        Ready entries are *already* woken; callers deciding whether a
        cycle can be skipped must also consult :attr:`has_ready`.
        """
        return self._bucket_keys[0] if self._bucket_keys else None

    @property
    def has_ready(self) -> bool:
        """Whether any woken micro-op is competing for selection."""
        return bool(self._ready)

    # -- select -----------------------------------------------------------

    def select(self, cycle: int,
               muldiv_quota: Optional[int] = None) -> List[InFlightUop]:
        """Pick the oldest ready micro-ops the functional units accept.

        ``muldiv_quota`` is ``None`` when the multiply/divide unit is
        untracked (private and pipelined: never a hazard), else the
        number of IMULDIV ops this cluster may start this cycle (0 while
        the unit is busy, 1 once free).  IMULDIV ops that find no quota
        park and re-enter, by age, once the unit frees; the caller keeps
        quota consistent with ``_muldiv_busy_until``.
        """
        self.wake(cycle)
        ready = self._ready
        parked_muldiv = self._parked_muldiv
        if parked_muldiv and muldiv_quota:
            # The unit freed: parked IMULDIV ops compete again, by age.
            ready.extend(parked_muldiv)
            del parked_muldiv[:]
            ready.sort()
        if not ready:
            return []
        picked: List[InFlightUop] = []
        taken: List[int] = []
        alus, lsus, fpus = self.num_alus, self.num_lsus, self.num_fpus
        budget = self.issue_width
        for index, entry in enumerate(ready):
            if not budget:
                break
            uop = entry[1]
            op = uop.inst.op
            if op in MEMORY_CLASSES:
                if not lsus:
                    continue
                lsus -= 1
            elif op in FP_CLASSES:
                if not fpus:
                    continue
                fpus -= 1
            else:
                if not alus:
                    continue
                if muldiv_quota is not None and op is OpClass.IMULDIV:
                    if not muldiv_quota:
                        parked_muldiv.append(entry)
                        taken.append(index)
                        continue
                    muldiv_quota -= 1
                alus -= 1
            picked.append(uop)
            taken.append(index)
            budget -= 1
        for index in reversed(taken):
            del ready[index]
        return picked

    # -- occupancy ----------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Entries still monitored by wake-up (operands outstanding).

        This is the cluster's wake-up monitoring pressure: how many tag
        comparators the paper's CAM-style window would be burning.
        """
        return self._pending_size

    @property
    def ready_count(self) -> int:
        """Woken entries competing for selection (parked ones included:
        their operands are ready; only a hazard holds them)."""
        return (len(self._ready) + len(self._parked_mem)
                + len(self._parked_muldiv))

    @property
    def queued(self) -> int:
        """Micro-ops currently waiting to issue on this cluster."""
        return self.pending_count + self.ready_count

    def is_empty(self) -> bool:
        return not (self._pending_size or self._ready or self._parked_mem
                    or self._parked_muldiv)

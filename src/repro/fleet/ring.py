"""Consistent-hash ring: idempotency keys -> worker nodes.

The fleet offers every job first to the owner of its idempotency key
(:func:`repro.service.jobs.job_key`), so ownership must be *stable
under membership change*: when a node joins or leaves, only the keys
whose ownership genuinely changes may move - every other key keeps
preferring the node that already holds its cached result.  A consistent-
hash ring is the classic structure with exactly that property: each
node is hashed onto a circle at ``vnodes`` pseudo-random points, a key
is owned by the first node point clockwise from the key's own hash, and
adding/removing a node only reassigns the arcs adjacent to that node's
points (an expected ``K/N`` fraction of the keyspace).

``vnodes`` (virtual nodes per physical node) trades ring size for
balance: with one point per node the arc lengths - and therefore the
load - have huge variance; with 64 points per node the per-node share
concentrates near ``1/N``.  Hashing is SHA-256 (stable across processes
and Python versions - ``hash()`` is salted and useless here), truncated
to 64 bits.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

#: Default virtual-node count per physical node.
DEFAULT_VNODES = 64


def stable_hash(text: str) -> int:
    """A process-stable 64-bit hash of ``text`` (SHA-256 truncation)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring over string node ids."""

    def __init__(self, nodes: Iterable[str] = (),
                 vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        #: Sorted (point, node) pairs - the ring itself.
        self._points: List[Tuple[int, str]] = []
        self._nodes: Dict[str, bool] = {}
        for node in nodes:
            self.add(node)

    # -- membership ------------------------------------------------------

    def add(self, node: str) -> None:
        """Insert ``node`` at its ``vnodes`` ring points (idempotent)."""
        if node in self._nodes:
            return
        self._nodes[node] = True
        for replica in range(self.vnodes):
            point = stable_hash(f"{node}#{replica}")
            bisect.insort(self._points, (point, node))

    def remove(self, node: str) -> None:
        """Remove ``node`` from the ring (idempotent)."""
        if node not in self._nodes:
            return
        del self._nodes[node]
        self._points = [(point, owner) for point, owner in self._points
                        if owner != node]

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    # -- routing ---------------------------------------------------------

    def node_for(self, key: str) -> Optional[str]:
        """The key's owner: first node point clockwise from hash(key)."""
        points = self._points
        if not points:
            return None
        start = bisect.bisect_right(points, (stable_hash(key),
                                             "\uffff"))
        return points[start % len(points)][1]

    def assignments(self, keys: Iterable[str]) -> Dict[str, Optional[str]]:
        """key -> owner for a batch of keys (rebalance-test helper)."""
        return {key: self.node_for(key) for key in keys}

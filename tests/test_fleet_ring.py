"""Consistent-hash ring properties (repro.fleet.ring).

The affinity contract owner-first leasing rests on: ownership is
deterministic and process-stable, and membership changes move *only*
the key ranges adjacent to the changed node.
"""

import pytest

from repro.fleet.ring import DEFAULT_VNODES, HashRing, stable_hash

KEYS = [f"{index:03d}cafef00d" for index in range(400)]


class TestHashStability:
    def test_pinned_value(self):
        # SHA-256 truncation: stable across processes, platforms and
        # Python versions (unlike the salted builtin hash()).
        assert stable_hash("wsrs") == 8535913498672517232

    def test_64_bit_range_and_spread(self):
        values = {stable_hash(key) for key in KEYS}
        assert len(values) == len(KEYS)
        assert all(0 <= value < 2 ** 64 for value in values)


class TestMembership:
    def test_add_is_idempotent(self):
        ring = HashRing(["n0"])
        ring.add("n0")
        assert len(ring) == 1
        assert len(ring._points) == DEFAULT_VNODES

    def test_remove_is_idempotent_and_empties(self):
        ring = HashRing(["n0"])
        ring.remove("n0")
        ring.remove("n0")
        assert len(ring) == 0
        assert ring.node_for("abc") is None

    def test_vnodes_validation(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)

    def test_contains_and_nodes(self):
        ring = HashRing(["n1", "n0"])
        assert "n0" in ring and "n2" not in ring
        assert ring.nodes == ["n0", "n1"]


class TestRouting:
    def test_deterministic_across_instances(self):
        first = HashRing(["n0", "n1", "n2"])
        second = HashRing(["n2", "n0", "n1"])  # insertion order is moot
        assert first.assignments(KEYS) == second.assignments(KEYS)

    def test_every_node_takes_a_fair_share(self):
        ring = HashRing(["n0", "n1", "n2"])
        assignment = ring.assignments(KEYS)
        for node in ring.nodes:
            share = sum(1 for owner in assignment.values()
                        if owner == node)
            # Expected share ~133 of 400; 64 vnodes keeps the variance
            # far inside this loose band.
            assert share >= 40


class TestRebalance:
    """Membership changes move only the expected key ranges."""

    def test_join_moves_only_keys_claimed_by_the_new_node(self):
        ring = HashRing(["n0", "n1"])
        before = ring.assignments(KEYS)
        ring.add("n2")
        after = ring.assignments(KEYS)
        moved = [key for key in KEYS if after[key] != before[key]]
        assert moved  # the new node really took arcs
        # Every moved key moved *to* the joiner - no shuffling between
        # the survivors.
        assert all(after[key] == "n2" for key in moved)
        # And it took roughly its K/N share, not the whole keyspace.
        assert len(moved) < len(KEYS) // 2

    def test_leave_moves_only_the_lost_nodes_keys(self):
        ring = HashRing(["n0", "n1", "n2"])
        before = ring.assignments(KEYS)
        ring.remove("n2")
        after = ring.assignments(KEYS)
        for key in KEYS:
            if before[key] == "n2":
                assert after[key] in ("n0", "n1")
            else:
                assert after[key] == before[key]

    def test_rejoin_reclaims_exactly_the_old_ranges(self):
        ring = HashRing(["n0", "n1", "n2"])
        before = ring.assignments(KEYS)
        ring.remove("n2")
        ring.add("n2")
        assert ring.assignments(KEYS) == before

"""WSRS/WS invariants on the full processor."""

import pytest

from repro.config import baseline_rr_256, ws_rr, wsrs_rc, wsrs_rm
from repro.core.processor import Processor, simulate
from repro.errors import ConfigError
from repro.trace.profiles import spec_trace
from tests.conftest import random_trace

SLICE = 6000


class TestReadWriteLegality:
    """sanitize=True makes the pipeline sanitizer check Figure 3's rules
    (SAN-READ-SUBSET, SAN-WRITE-SUBSET) on every micro-op; these tests
    run real workloads with the checks armed - any violation raises."""

    @pytest.mark.parametrize("factory", [wsrs_rc, wsrs_rm])
    def test_wsrs_policies_respect_read_constraints(self, factory):
        stats = simulate(factory(512), spec_trace("gzip", SLICE),
                         measure=SLICE, sanitize=True)
        assert stats.committed > 0

    def test_wsrs_on_fp_workload(self):
        stats = simulate(wsrs_rc(512), spec_trace("wupwise", SLICE),
                         measure=SLICE, sanitize=True)
        assert stats.committed > 0

    def test_wsrs_on_random_traces(self):
        for seed in range(3):
            stats = simulate(wsrs_rc(512),
                             random_trace(2000, seed=seed),
                             measure=2000, sanitize=True)
            assert stats.committed == 2000

    def test_dependence_aware_policy_is_also_legal(self):
        config = wsrs_rc(512, allocation_policy="dependence_aware")
        stats = simulate(config, spec_trace("gzip", SLICE), measure=SLICE,
                         sanitize=True)
        assert stats.committed > 0


class TestPolicyConfigGuards:
    def test_wsrs_rejects_non_rs_policy(self):
        config = wsrs_rc(512, allocation_policy="round_robin")
        with pytest.raises(ConfigError, match="read constraints"):
            Processor(config, iter([]))

    def test_ws_accepts_round_robin(self):
        Processor(ws_rr(512), iter([]))


class TestWorkloadDistribution:
    def test_round_robin_is_perfectly_balanced(self):
        stats = simulate(baseline_rr_256(), spec_trace("gzip", SLICE),
                         measure=SLICE)
        assert stats.unbalancing_degree == 0.0
        shares = stats.workload_shares
        assert max(shares) - min(shares) < 0.01

    def test_wsrs_long_run_shares_are_roughly_even(self):
        stats = simulate(wsrs_rc(512), spec_trace("gzip", 20_000),
                         measure=20_000)
        assert all(0.15 < share < 0.35
                   for share in stats.workload_shares)

    def test_wsrs_groups_are_unbalanced(self):
        stats = simulate(wsrs_rc(512), spec_trace("wupwise", 20_000),
                         measure=20_000)
        assert stats.unbalancing_degree > 40.0

    def test_rc_produces_swapped_forms_rm_does_not(self):
        rc = simulate(wsrs_rc(512), spec_trace("gzip", SLICE),
                      measure=SLICE)
        rm = simulate(wsrs_rm(512), spec_trace("gzip", SLICE),
                      measure=SLICE)
        assert rc.swapped_forms > 0
        assert rm.swapped_forms == 0


class TestCrossConfigConsistency:
    def test_all_configs_commit_the_same_instruction_count(self):
        from repro.config import figure4_configs

        trace = random_trace(3000, seed=5)
        committed = set()
        for config in figure4_configs():
            stats = simulate(config, iter(trace), measure=3000)
            committed.add(stats.committed)
        assert committed == {3000}

    def test_ws_matches_baseline_mispredictions(self):
        """Identical trace + predictor => identical branch behaviour."""
        trace = random_trace(3000, seed=6)
        base = simulate(baseline_rr_256(), iter(trace), measure=3000)
        ws = simulate(ws_rr(512), iter(trace), measure=3000)
        assert base.mispredictions == ws.mispredictions

    def test_rename_impl_choice_does_not_change_results_much(self):
        trace = random_trace(4000, seed=7)
        impl1 = simulate(ws_rr(512, rename_impl=1), iter(trace),
                         measure=4000)
        impl2 = simulate(ws_rr(512, rename_impl=2), iter(trace),
                         measure=4000)
        assert impl1.committed == impl2.committed == 4000
        assert abs(impl1.ipc - impl2.ipc) / impl2.ipc < 0.1

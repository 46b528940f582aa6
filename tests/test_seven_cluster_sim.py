"""End-to-end tests for the 7-cluster WSRS machine (companion work)."""

import pytest

from repro.config import wsrs_seven_cluster
from repro.core.processor import Processor, simulate
from repro.core.stats import unbalance_thresholds
from repro.errors import ConfigError
from repro.trace.profiles import spec_trace
from tests.conftest import random_trace


class TestConfig:
    def test_factory_validates(self):
        config = wsrs_seven_cluster()
        config.validate()
        assert config.num_clusters == 7
        assert config.int_subset_size == 81  # one past the logical count
        assert config.allocation_policy == "mapped_random"

    def test_default_sizing_is_deadlock_proof(self):
        """81 > 80 architected per subset: no runtime workaround needed."""
        from repro.config import DEADLOCK_NONE
        from repro.verify.rules import check_config

        config = wsrs_seven_cluster()
        assert config.deadlock_policy == DEADLOCK_NONE
        assert not check_config(config)

    def test_borderline_sizing_still_expressible(self):
        config = wsrs_seven_cluster(int_registers=560,
                                    deadlock_policy="moves")
        config.validate()
        assert config.int_subset_size == 80

    def test_rejects_unsplittable_totals(self):
        with pytest.raises(ConfigError, match="split 7 ways"):
            wsrs_seven_cluster(int_registers=561)

    def test_wsrs_with_odd_cluster_count_needs_mapped_random(self):
        config = wsrs_seven_cluster(allocation_policy="random_monadic")
        with pytest.raises(ConfigError, match="mapped_random"):
            config.validate()


class TestUnbalanceThresholds:
    def test_paper_values_for_four_clusters(self):
        assert unbalance_thresholds(4) == (24, 40)

    def test_scaled_values(self):
        low, high = unbalance_thresholds(7)
        assert low < 128 / 7 < high

    def test_two_cluster_scaling(self):
        assert unbalance_thresholds(2) == (48, 80)


class TestSimulation:
    def test_runs_with_invariants_checked(self):
        stats = simulate(wsrs_seven_cluster(), spec_trace("gzip", 8000),
                         measure=8000, sanitize=True)
        assert stats.committed == 8000

    def test_long_run_shares_are_even_across_seven_clusters(self):
        stats = simulate(wsrs_seven_cluster(),
                         spec_trace("gzip", 20_000), measure=20_000)
        assert len(stats.workload_shares) == 7
        assert all(0.09 < share < 0.20
                   for share in stats.workload_shares)

    def test_random_traces_complete(self):
        for seed in range(3):
            trace = random_trace(1500, seed=seed)
            stats = simulate(wsrs_seven_cluster(), iter(trace),
                             measure=1500, sanitize=True)
            assert stats.committed == 1500

    def test_wider_machine_is_at_least_competitive(self):
        """14-way 7-cluster vs 8-way 4-cluster on a high-ILP workload."""
        from repro.config import wsrs_rc

        four = simulate(wsrs_rc(512), spec_trace("facerec", 16_000),
                        measure=8000, warmup=8000)
        seven = simulate(wsrs_seven_cluster(),
                         spec_trace("facerec", 16_000),
                         measure=8000, warmup=8000)
        assert seven.ipc > four.ipc * 0.9

    def test_mapped_random_produces_swapped_forms(self):
        stats = simulate(wsrs_seven_cluster(), spec_trace("gzip", 6000),
                         measure=6000)
        assert stats.swapped_forms > 0

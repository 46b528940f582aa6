"""Tests for machine configurations (repro.config)."""

import pytest

from repro.config import (
    DEADLOCK_NONE,
    DEFAULT_LATENCIES,
    FASTFORWARD_COMPLETE,
    FASTFORWARD_INTRA,
    FASTFORWARD_PAIRS,
    CacheConfig,
    ClusterConfig,
    MachineConfig,
    MemoryConfig,
    baseline_rr_256,
    config_by_name,
    figure4_configs,
    ws_rr,
    wsrs_rc,
    wsrs_rm,
)
from repro.errors import ConfigError
from repro.trace.model import OpClass


class TestFactories:
    def test_baseline_matches_section_5(self):
        config = baseline_rr_256()
        config.validate()
        assert config.int_physical_registers == 256
        assert config.mispredict_penalty == 17
        assert config.specialization == "none"
        assert config.allocation_policy == "round_robin"
        assert config.num_subsets == 1

    def test_ws_configuration(self):
        config = ws_rr(384)
        config.validate()
        assert config.specialization == "ws"
        assert config.num_subsets == 4
        assert config.int_subset_size == 96
        assert config.mispredict_penalty == 16

    def test_wsrs_rc_penalties_per_rename_impl(self):
        assert wsrs_rc(512, rename_impl=2).mispredict_penalty == 18
        assert wsrs_rc(512, rename_impl=1).mispredict_penalty == 16

    def test_wsrs_policies(self):
        assert wsrs_rc(512).allocation_policy == "random_commutative"
        assert wsrs_rm(512).allocation_policy == "random_monadic"

    def test_fp_file_is_half_the_integer_file(self):
        for config in figure4_configs():
            assert config.fp_physical_registers \
                == config.int_physical_registers // 2

    def test_figure4_configs_in_legend_order(self):
        names = [config.name for config in figure4_configs()]
        assert names == ["RR 256", "WSRR 384", "WSRR 512",
                         "WSRS RC S 384", "WSRS RC S 512",
                         "WSRS RM S 512"]

    def test_every_figure4_config_validates(self):
        for config in figure4_configs():
            config.validate()

    def test_config_by_name_roundtrip(self):
        for config in figure4_configs():
            assert config_by_name(config.name).name == config.name

    def test_config_by_name_unknown(self):
        with pytest.raises(ConfigError, match="unknown configuration"):
            config_by_name("nope")

    def test_config_by_name_with_override(self):
        config = config_by_name("RR 256", rob_size=64)
        assert config.rob_size == 64

    def test_ws_rejects_unsplittable_totals(self):
        with pytest.raises(ConfigError):
            ws_rr(385)
        with pytest.raises(ConfigError):
            wsrs_rc(510)


class TestValidation:
    def test_default_is_valid(self):
        MachineConfig().validate()

    def test_rejects_unknown_specialization(self):
        with pytest.raises(ConfigError):
            MachineConfig(specialization="half").validate()

    def test_wsrs_off_four_clusters_needs_the_generalised_policy(self):
        with pytest.raises(ConfigError, match="mapped_random"):
            MachineConfig(specialization="wsrs",
                          num_clusters=8).validate()
        MachineConfig(specialization="wsrs", num_clusters=8,
                      allocation_policy="mapped_random",
                      front_width=16, commit_width=16,
                      int_physical_registers=768,  # 96-reg subsets
                      fp_physical_registers=384,
                      ).validate()

    def test_rejects_subset_deadlock_without_policy(self):
        # subsets of 24 < 80 logical registers and no deadlock policy
        config = MachineConfig(specialization="ws",
                               int_physical_registers=96,
                               deadlock_policy=DEADLOCK_NONE)
        with pytest.raises(ConfigError, match="deadlock"):
            config.validate()

    def test_small_subsets_allowed_with_policy(self):
        config = MachineConfig(specialization="ws",
                               int_physical_registers=96,
                               fp_physical_registers=96,
                               deadlock_policy="moves")
        config.validate()

    def test_rejects_bad_rename_impl(self):
        with pytest.raises(ConfigError):
            MachineConfig(rename_impl=3).validate()

    def test_rejects_indivisible_register_total(self):
        with pytest.raises(ConfigError):
            MachineConfig(specialization="ws",
                          int_physical_registers=514).validate()

    def test_rejects_tiny_rob(self):
        with pytest.raises(ConfigError):
            MachineConfig(rob_size=4).validate()

    def test_rejects_bad_penalty(self):
        with pytest.raises(ConfigError):
            MachineConfig(mispredict_penalty=0).validate()

    def test_rejects_missing_latency(self):
        latencies = dict(DEFAULT_LATENCIES)
        del latencies[OpClass.FPDIV]
        with pytest.raises(ConfigError):
            MachineConfig(latencies=latencies).validate()

    def test_with_changes_creates_modified_copy(self):
        base = baseline_rr_256()
        changed = base.with_changes(rob_size=128)
        assert changed.rob_size == 128
        assert base.rob_size == 224


class TestForwardDelay:
    def test_intra_policy(self):
        config = MachineConfig(fastforward=FASTFORWARD_INTRA)
        assert config.forward_delay(0, 0) == 0
        assert config.forward_delay(0, 1) == 1
        assert config.forward_delay(2, 3) == 1

    def test_pairs_policy(self):
        config = MachineConfig(fastforward=FASTFORWARD_PAIRS)
        assert config.forward_delay(0, 1) == 0
        assert config.forward_delay(2, 3) == 0
        assert config.forward_delay(1, 2) == 1

    def test_complete_policy(self):
        config = MachineConfig(fastforward=FASTFORWARD_COMPLETE)
        assert all(config.forward_delay(a, b) == 0
                   for a in range(4) for b in range(4))

    def test_same_cluster_always_free(self):
        for policy in (FASTFORWARD_INTRA, FASTFORWARD_PAIRS,
                       FASTFORWARD_COMPLETE):
            config = MachineConfig(fastforward=policy)
            assert all(config.forward_delay(c, c) == 0 for c in range(4))


class TestRegisterGeometry:
    def test_subset_sizes(self):
        config = wsrs_rc(512)
        assert config.int_subset_size == 128
        assert config.fp_subset_size == 64

    def test_is_fp_register_boundary(self):
        config = baseline_rr_256()
        assert not config.is_fp_register(79)
        assert config.is_fp_register(80)

    def test_total_logical(self):
        assert baseline_rr_256().total_logical_registers == 112


class TestMemoryConfig:
    def test_table3_defaults(self):
        memory = MemoryConfig()
        assert memory.l1.size_bytes == 32 * 1024
        assert memory.l1.hit_latency == 2
        assert memory.l1.miss_penalty == 12
        assert memory.l2.size_bytes == 512 * 1024
        assert memory.l2.miss_penalty == 80
        assert memory.l1_ports == 4
        assert memory.l2_bytes_per_cycle == 16

    def test_l2_refill_cycles(self):
        assert MemoryConfig().l2_refill_cycles == 4  # 64B / 16B-per-cycle

    def test_cache_geometry(self):
        cache = CacheConfig(size_bytes=32 * 1024, line_bytes=64,
                            associativity=4, hit_latency=2, miss_penalty=12)
        assert cache.num_lines == 512
        assert cache.num_sets == 128

    def test_cache_rejects_non_power_of_two_sets(self):
        cache = CacheConfig(size_bytes=24 * 1024, line_bytes=64,
                            associativity=4, hit_latency=2, miss_penalty=12)
        with pytest.raises(ConfigError):
            cache.validate()

    @pytest.mark.parametrize("field,value,match", [
        ("size_bytes", 0, "size must be positive"),
        ("size_bytes", -4096, "size must be positive"),
        ("line_bytes", 0, "line size must be positive"),
        ("line_bytes", -64, "line size must be positive"),
        ("associativity", 0, "associativity must be positive"),
        ("associativity", -2, "associativity must be positive"),
        ("hit_latency", 0, "hit latency"),
        ("miss_penalty", -1, "miss penalty"),
    ])
    def test_cache_rejects_non_positive_fields(self, field, value, match):
        # The positivity guards must fire *before* the modulo /
        # power-of-two arithmetic, which divides by these fields.
        fields = dict(size_bytes=32 * 1024, line_bytes=64, associativity=4,
                      hit_latency=2, miss_penalty=12)
        fields[field] = value
        with pytest.raises(ConfigError, match=match):
            CacheConfig(**fields).validate()

    def test_cache_zero_line_reports_cleanly(self):
        # A zero line size used to crash with ZeroDivisionError inside
        # num_lines before the explicit guard existed.
        cache = CacheConfig(size_bytes=32 * 1024, line_bytes=0,
                            associativity=4, hit_latency=2, miss_penalty=12)
        with pytest.raises(ConfigError, match="line size"):
            cache.validate()

    def test_cluster_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(issue_width=0).validate()
        with pytest.raises(ConfigError):
            ClusterConfig(max_inflight=1).validate()
        with pytest.raises(ConfigError, match="load/store unit"):
            ClusterConfig(num_lsus=0).validate()


class TestLatencies:
    def test_table2_values(self):
        assert DEFAULT_LATENCIES[OpClass.LOAD] == 2
        assert DEFAULT_LATENCIES[OpClass.IALU] == 1
        assert DEFAULT_LATENCIES[OpClass.IMULDIV] == 15
        assert DEFAULT_LATENCIES[OpClass.FPADD] == 4
        assert DEFAULT_LATENCIES[OpClass.FPMUL] == 4
        assert DEFAULT_LATENCIES[OpClass.FPDIV] == 15

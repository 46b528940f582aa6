"""Tests for CPI-stack cycle accounting (repro.obs.cpi + observer).

The three acceptance properties of the observability layer, pinned on
the six section-5 configurations with short slices:

* every measured cycle lands in exactly one bucket - the stack sums
  bit-exactly to ``stats.cycles``, under both simulator gears;
* the gear-invariant snapshot view (causes, counters, histograms,
  steering mirror) is identical between the reference stepper and the
  specialized gear, jump-heavy workloads included;
* attaching the layer leaves every simulation statistic bit-identical
  (observability is a pure reader), and composes with ``sanitize=``.
"""

import pytest

from repro.config import figure4_configs, wsrs_rc
from repro.experiments.runner import RunSpec, execute
from repro.obs.cpi import CAUSES, CycleAccountant, refine_window_stall
from repro.obs.observer import gear_invariant_view

MEASURE = 2_500
WARMUP = 1_500

CONFIG_NAMES = [config.name for config in figure4_configs()]


def _run(config, benchmark="gzip", **overrides):
    spec = RunSpec(config=config, benchmark=benchmark, measure=MEASURE,
                   warmup=WARMUP, seed=1, **overrides)
    return execute(spec)


def _zero_deltas():
    from repro.obs.cpi import TRACKED_COUNTERS

    return {name: 0 for name in TRACKED_COUNTERS}


class _FakeInst:
    def __init__(self, is_memory=False, op=None):
        from repro.trace.model import OpClass

        self.is_memory = is_memory
        self.op = op if op is not None else OpClass.IALU


class _FakeHead:
    def __init__(self, **kwargs):
        self.inst = _FakeInst(**kwargs)


class TestClassification:
    def test_commit_wins(self):
        deltas = _zero_deltas()
        deltas["committed"] = 3
        deltas["stall_rob_full"] = 8
        assert CycleAccountant.classify(deltas, None) == "base"

    def test_deadlock_moves_before_ramp(self):
        deltas = _zero_deltas()
        deltas["stall_deadlock_moves"] = 2
        deltas["dispatched"] = 1
        assert CycleAccountant.classify(deltas, None) == "deadlock_moves"

    def test_progress_without_commit_is_ramp(self):
        deltas = _zero_deltas()
        deltas["issued"] = 2
        assert CycleAccountant.classify(deltas, None) == "ramp"

    def test_pure_stalls(self):
        for counter, cause in (("stall_branch_penalty", "branch"),
                               ("stall_rob_full", "rob_full"),
                               ("stall_cluster_full", "cluster_full"),
                               ("stall_no_register", "rename_subset")):
            deltas = _zero_deltas()
            deltas[counter] = 8
            assert CycleAccountant.classify(deltas, None) == cause

    def test_window_stall_refined_by_rob_head(self):
        from repro.trace.model import OpClass

        deltas = _zero_deltas()
        deltas["stall_rob_full"] = 8
        memory_head = _FakeHead(is_memory=True)
        muldiv_head = _FakeHead(op=OpClass.IMULDIV)
        assert CycleAccountant.classify(deltas, memory_head) == "memory"
        assert CycleAccountant.classify(deltas, muldiv_head) == "muldiv"

    def test_nothing_moved_is_drain(self):
        assert CycleAccountant.classify(_zero_deltas(), None) == "drain"

    def test_jump_causes_mirror_specialized_tags(self):
        memory_head = _FakeHead(is_memory=True)
        assert CycleAccountant.jump_cause("branch", None) == "branch"
        assert CycleAccountant.jump_cause("rob", memory_head) == "memory"
        assert CycleAccountant.jump_cause("cluster", None) == "cluster_full"
        assert CycleAccountant.jump_cause("exhausted", None) == "drain"
        with pytest.raises(ValueError):
            CycleAccountant.jump_cause("nonsense", None)

    def test_refine_fallback_on_empty_window(self):
        assert refine_window_stall(None, "rob_full") == "rob_full"

    def test_charge_accumulates(self):
        accountant = CycleAccountant()
        accountant.charge("base")
        accountant.charge("memory", 41)
        assert accountant.total_cycles == 42
        accountant.reset()
        assert accountant.total_cycles == 0
        assert set(accountant.snapshot()) == set(CAUSES)


@pytest.mark.parametrize("name", CONFIG_NAMES)
class TestSectionFiveAcceptance:
    """The ISSUE acceptance criteria, one config at a time."""

    def test_stack_sums_and_gears_and_neutrality(self, name):
        config = next(c for c in figure4_configs() if c.name == name)
        observed_fast = _run(config, observe=True)
        observed_ref = _run(config, observe=True, gear="reference")
        plain = _run(config, observe=False)

        for result in (observed_fast, observed_ref):
            assert sum(result.obs["causes"].values()) == \
                result.stats.cycles
            assert result.obs["cycles"] == result.stats.cycles

        assert gear_invariant_view(observed_fast.obs) == \
            gear_invariant_view(observed_ref.obs)
        # the equality above must compare the two gears
        assert observed_fast.obs["engine"]["gear"] == "specialized"
        assert observed_ref.obs["engine"]["gear"] == "reference"

        assert observed_fast.stats.summary() == plain.stats.summary()
        assert observed_fast.stats.cycles == plain.stats.cycles
        assert observed_fast.stats.committed == plain.stats.committed


class TestComposition:
    def test_observe_composes_with_sanitizer(self):
        config = next(c for c in figure4_configs()
                      if c.name == "WSRS RC S 512")
        sanitized = _run(config, observe=True, sanitize=True)
        plain = _run(config, observe=False, sanitize=False)
        assert sum(sanitized.obs["causes"].values()) == \
            sanitized.stats.cycles
        assert sanitized.stats.summary() == plain.stats.summary()

    def test_memory_bound_stack_shows_memory(self):
        """mcf on the specialized gear: jump-bulk-charged windows must land
        in the refined memory bucket, and still sum exactly."""
        config = next(c for c in figure4_configs()
                      if c.name == "WSRS RC S 512")
        result = _run(config, benchmark="mcf", observe=True)
        causes = result.obs["causes"]
        assert sum(causes.values()) == result.stats.cycles
        assert causes["memory"] > 0
        assert result.obs["engine"]["horizon_jumps"] > 0

    def test_recycling_renamer_free_depths_match_across_gears(self):
        """Implementation-1 free lists keep staging and recycling through
        a jumped window; the per-subset depth histograms must still
        match the reference stepper's per-cycle samples."""
        config = wsrs_rc(512, rename_impl=1)
        fast = _run(config, benchmark="mcf", observe=True,
                    gear="specialized")
        ref = _run(config, benchmark="mcf", observe=True, gear="reference")
        assert fast.obs["engine"]["horizon_jumps"] > 0
        assert gear_invariant_view(fast.obs) == gear_invariant_view(ref.obs)

    def test_snapshot_is_picklable_plain_data(self):
        import pickle

        config = next(c for c in figure4_configs() if c.name == "RR 256")
        result = _run(config, observe=True)
        assert result.obs == pickle.loads(pickle.dumps(result.obs))

    def test_warmup_reset_restarts_accounting(self):
        """The stack covers only the measured slice: its total equals the
        measured cycles, not warmup + measured."""
        config = next(c for c in figure4_configs() if c.name == "RR 256")
        with_warmup = _run(config, observe=True)
        assert sum(with_warmup.obs["causes"].values()) == \
            with_warmup.stats.cycles

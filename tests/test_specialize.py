"""The config-specialized gear (repro.core.specialize).

Angles:

* **Property-based golden equivalence** - hypothesis draws (machine
  configuration, benchmark, trace seed, attached hooks) and the two
  gears must agree on the full ``SimulationStats`` fingerprint, the
  final free lists and, with an observer attached, the gear-invariant
  snapshot (CPI stack, counters, histograms).
* **Hooks and guards** - sanitized and observed runs take the hooked
  variant of the generated stepper, and the mid-run guard (a
  deadlock-breaking move) hands the run to the reference stepper
  exactly once without double-counting a cycle, under both renaming
  implementations and with hooks attached.
* **Implementation 1** - the recycling renamer runs on the specialized
  gear, jumps included, with identical statistics and final free lists.
* **Code generation** - the generated source is deterministic, bakes
  the configuration constants as literals, and is cached per source
  and variant.
* **Default gear** - a default :class:`RunSpec` runs every cell on the
  specialized gear, records the gear's provenance on the result, and
  leaves no processor alive in a reference cycle.
"""

import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import baseline_rr_256, figure4_configs, ws_rr, \
    wsrs_rc, wsrs_rm
from repro.explore.lattice import build_config
from repro.core.processor import Processor
from repro.experiments import runner
from repro.experiments.runner import RunSpec, execute
from repro.core.specialize import _CODE_CACHE, generate_stepper_source
from repro.obs.observer import gear_invariant_view
from repro.trace.profiles import spec_trace

MEASURE = 1_200
WARMUP = 400
SLICE = MEASURE + WARMUP + 3_000


def _fingerprint(stats):
    return (stats.summary(),
            list(stats.cluster_allocated),
            list(stats.cluster_issued))


def _run(config, trace, gear, **kwargs):
    processor = Processor(config, iter(trace), gear=gear, **kwargs)
    stats = processor.run(measure=MEASURE, warmup=WARMUP)
    return processor, stats


#: The hook mixes a run can attach, as Processor keyword arguments.
HOOKS = {
    "none": {},
    "sanitizer": {"sanitize": True},
    "observer": {"observe": True},
    "both": {"sanitize": True, "observe": True},
}


def _observed(processor):
    """Gear-invariant observer snapshot (None without an observer)."""
    if processor.obs is None:
        return None
    return gear_invariant_view(processor.obs.snapshot())


def _free_lists(processor):
    """Every subset's register order and bookkeeping (implementation 1's
    staged/avail/batches included)."""
    return [(list(flist._queue), flist.available,
             getattr(flist, "staged", None), getattr(flist, "avail", None),
             list(getattr(flist, "batches", ())))
            for cls in processor.renamer._classes
            for flist in cls.free_lists]


_FACTORIES = {
    "rr": lambda total, rename_impl: baseline_rr_256(),
    "ws_rr": ws_rr,
    "wsrs_rc": wsrs_rc,
    "wsrs_rm": wsrs_rm,
}


@st.composite
def machine_configs(draw):
    factory = draw(st.sampled_from(sorted(_FACTORIES)))
    # 384/4 = 96-register subsets stay above the section 2.3 deadlock
    # borderline for 64 logical registers.
    total = draw(st.sampled_from([384, 512]))
    return _FACTORIES[factory](total,
                               rename_impl=draw(st.sampled_from([1, 2])))


class TestPropertyEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(config=machine_configs(),
           benchmark=st.sampled_from(["gzip", "gcc", "mcf", "wupwise"]),
           seed=st.integers(min_value=1, max_value=3),
           hooks=st.sampled_from(sorted(HOOKS)))
    def test_three_gears_agree_on_stats(self, config, benchmark, seed,
                                        hooks):
        trace = list(spec_trace(benchmark, SLICE, seed=seed))
        prints = {}
        for gear in ("reference", "specialized"):
            processor, stats = _run(config, trace, gear, **HOOKS[hooks])
            assert processor.gear == gear
            prints[gear] = (_fingerprint(stats), _observed(processor),
                            _free_lists(processor))
        assert prints["reference"] == prints["specialized"]

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=3))
    def test_cpi_stacks_survive_the_fallback(self, seed):
        # An observed run on the moves config trips the specialized
        # gear mid-run: identical stats *and* identical snapshots, with
        # every cycle accounted exactly once across the hand-off.
        config = TestMidRunGuard._tight_moves_config()
        trace = list(spec_trace("gcc", SLICE, seed=seed))
        ref_proc, ref = _run(config, trace, "reference", observe=True)
        spec_proc, spec = _run(config, trace, "specialized", observe=True)
        assert spec_proc.despecializations == 1
        assert _fingerprint(ref) == _fingerprint(spec)
        assert _observed(ref_proc) == _observed(spec_proc)
        causes = spec_proc.obs.snapshot()["causes"]
        assert causes["deadlock_moves"] > 0
        assert sum(causes.values()) == spec.cycles


class TestMuldivArbitration:
    """Tracked multiply/divide units on the specialized gear: the
    generated execute stage charges the issuing cluster's unit, and a
    dead window's horizon includes every unit release."""

    @pytest.mark.parametrize("pipelined,shared",
                             [(False, False), (False, True), (True, True)])
    def test_fast_gears_match_reference(self, pipelined, shared):
        config = baseline_rr_256(pipelined_muldiv=pipelined,
                                 shared_muldiv=shared)
        for benchmark in ("gcc", "swim"):
            trace = list(spec_trace(benchmark, SLICE, seed=2))
            _, ref = _run(config, trace, "reference")
            proc, stats = _run(config, trace, "specialized")
            assert proc.gear == "specialized"
            assert _fingerprint(ref) == _fingerprint(stats), benchmark


class TestEntryGuards:
    def test_clean_processor_specializes(self):
        processor = Processor(figure4_configs()[0],
                              iter(spec_trace("gzip", SLICE)),
                              gear="specialized")
        assert processor.gear == "specialized"
        assert processor._hooks == ()

    def test_sanitizer_specializes(self):
        trace = list(spec_trace("gcc", SLICE))
        config = wsrs_rm(512)
        ref_proc, ref = _run(config, trace, "reference", sanitize=True)
        spec_proc, spec = _run(config, trace, None, sanitize=True)
        assert spec_proc.gear == "specialized"
        assert spec_proc._hooks == (spec_proc.sanitizer,)
        assert _fingerprint(ref) == _fingerprint(spec)
        # One check per cycle on either gear, jumped windows included.
        assert spec_proc.sanitizer.checks == ref_proc.sanitizer.checks

    def test_observer_specializes(self):
        processor = Processor(figure4_configs()[0],
                              iter(spec_trace("gzip", SLICE)),
                              observe=True)
        assert processor.gear == "specialized"
        assert processor._hooks == (processor.obs,)

    def test_recycling_renamer_specializes(self):
        processor = Processor(wsrs_rc(512, rename_impl=1),
                              iter(spec_trace("gzip", SLICE)),
                              gear="specialized")
        assert processor.gear == "specialized"

    def test_blocked_runs_stay_bit_identical(self):
        # A run whose specialized stepper a deadlock move blocks
        # mid-run must not change behaviour, sanitizer attached.
        config = TestMidRunGuard._tight_moves_config()
        trace = list(spec_trace("gcc", SLICE))
        ref_proc, ref = _run(config, trace, "reference", sanitize=True)
        spec_proc, spec = _run(config, trace, "specialized",
                               sanitize=True)
        assert spec_proc.despecializations == 1
        assert _fingerprint(ref) == _fingerprint(spec)
        assert spec_proc.sanitizer.checks == ref_proc.sanitizer.checks

    def test_unknown_gear_rejected(self):
        from repro.errors import ConfigError
        for gear in ("overdrive", "horizon"):
            with pytest.raises(ConfigError):
                Processor(figure4_configs()[0], iter([]), gear=gear)


class TestMidRunGuard:
    """A deadlock-breaking move trips the specialized envelope."""

    CONFIG = None

    @classmethod
    def _tight_moves_config(cls):
        if cls.CONFIG is None:
            cls.CONFIG = ws_rr(84, deadlock_policy="moves",
                               fp_physical_registers=160)
        return cls.CONFIG

    def test_fallback_is_bit_identical_with_no_double_counting(self):
        config = self._tight_moves_config()
        trace = list(spec_trace("gcc", SLICE))
        ref_proc, ref = _run(config, trace, "reference")
        spec_proc, spec = _run(config, trace, "specialized")
        assert ref.deadlock_moves > 0  # the guard actually fired
        assert spec_proc.despecializations == 1
        assert spec_proc.gear == "reference"  # the rest runs per cycle
        # cycles (inside summary()) equal => no cycle double-counted or
        # lost across the mid-run hand-off.
        assert _fingerprint(ref) == _fingerprint(spec)

    def test_despecialization_is_permanent_for_the_run(self):
        config = self._tight_moves_config()
        processor, _ = _run(config, list(spec_trace("gcc", SLICE)),
                            "specialized")
        assert processor._specialized_run is None
        assert processor.despecializations == 1

    def test_impl1_fallback_is_bit_identical(self):
        # Implementation 1 renames only from the staged group, which a
        # move never refills: the move cycle stalls, and the guard still
        # trips so the reference stepper publishes stats.deadlock_moves.
        config = wsrs_rc(128, rename_impl=1, deadlock_policy="moves",
                         fp_physical_registers=160, front_width=4)
        trace = list(spec_trace("gzip", SLICE, seed=1))
        ref_proc, ref = _run(config, trace, "reference")
        spec_proc, spec = _run(config, trace, "specialized")
        assert ref_proc.renamer.deadlock_moves > 0
        assert spec_proc.despecializations == 1
        assert spec_proc.gear == "reference"
        assert _fingerprint(ref) == _fingerprint(spec)
        assert _free_lists(ref_proc) == _free_lists(spec_proc)


class TestRecyclingRenamer:
    """Implementation 1 on the specialized gear: the staging/recycling
    work runs every stepped cycle and in closed form over every jump."""

    @pytest.mark.parametrize("config", [
        ws_rr(512, rename_impl=1), wsrs_rc(512, rename_impl=1),
        build_config("wsrs", 4, 81, 8, "random_commutative", "moves"),
    ], ids=lambda c: c.name.replace(" ", "_"))
    @pytest.mark.parametrize("profile", ["gzip", "mcf"])
    def test_three_gears_agree(self, config, profile):
        assert config.rename_impl == 1
        trace = list(spec_trace(profile, SLICE, seed=1))
        ref_proc, ref = _run(config, trace, "reference")
        processor, stats = _run(config, trace, "specialized")
        assert processor.gear == "specialized"
        assert processor.horizon_jumps > 0
        assert _fingerprint(stats) == _fingerprint(ref)
        assert _free_lists(processor) == _free_lists(ref_proc)

    def test_codegen_drives_the_rotating_free_lists(self):
        source = generate_stepper_source(wsrs_rc(512, rename_impl=1))
        for call in ("_f(8)", "_f()", "_q.take()", ".recycle(",
                     "_f.idle(8, skipped)", "if not _q.staged:"):
            assert call in source, call
        assert "popleft()" not in source.replace("rob_popleft", "")


class TestCodeGeneration:
    def test_source_is_deterministic(self):
        config = figure4_configs()[0]
        assert generate_stepper_source(config) \
            == generate_stepper_source(config)

    def test_constants_are_baked(self):
        config = wsrs_rc(512)
        source = generate_stepper_source(config)
        # Subset routing appears as literal arithmetic, not attribute
        # lookups on the config object.
        assert "// %d" % config.int_subset_size in source
        assert "proc.config" not in source

    def test_rc_rm_steering_is_inlined(self):
        # The paper's RC/RM random policies are baked into the loop as
        # subset arithmetic plus direct draws on the allocator's RNG;
        # the allocate() call only survives for other policies.
        for factory in (wsrs_rc, wsrs_rm):
            source = generate_stepper_source(factory(512))
            assert "allocate(" not in source
            assert "rng_rand" in source
        assert "allocate(" in generate_stepper_source(
            replace(wsrs_rc(512), allocation_policy="least_loaded"))

    def test_compiled_code_is_cached(self):
        config = figure4_configs()[0]
        trace = iter(spec_trace("gzip", 64))
        Processor(config, trace, gear="specialized")
        before = len(_CODE_CACHE)
        Processor(config, iter(spec_trace("gzip", 64)),
                  gear="specialized")
        assert len(_CODE_CACHE) == before

    def test_hooked_variant_is_cached_separately(self):
        config = figure4_configs()[0]
        plain = generate_stepper_source(config)
        hooked = generate_stepper_source(config, hooked=True)
        assert "hooks" not in plain
        for hook in ("on_dispatch(uop, cycle)", "on_issue(uop, cycle)",
                     "on_commit(uop, cycle)", "on_cycle_end(cycle)",
                     "on_cycle_skip(cycle, horizon, _stall_tag)"):
            assert hook in hooked, hook
        Processor(config, iter([]))
        Processor(config, iter([]), observe=True)
        assert plain in _CODE_CACHE and hooked in _CODE_CACHE


class TestDefaultGear:
    """``gear=None`` engages the specialized gear."""

    @staticmethod
    def _spec(config, **kwargs):
        return RunSpec(config=config, benchmark="gcc", measure=MEASURE,
                       warmup=WARMUP, **kwargs)

    def test_section5_configs_run_specialized_and_match_reference(self):
        for config in figure4_configs():
            default = execute(self._spec(config))
            reference = execute(self._spec(config, gear="reference"))
            assert default.gear == "specialized", config.name
            assert default.despecializations == 0
            assert reference.gear == "reference"
            assert _fingerprint(default.stats) \
                == _fingerprint(reference.stats), config.name

    def test_impl1_wsrs_cell_runs_specialized_and_matches_reference(self):
        config = wsrs_rc(512, rename_impl=1)
        result = execute(self._spec(config))
        reference = execute(self._spec(config, gear="reference"))
        assert result.gear == "specialized"
        assert _fingerprint(result.stats) == _fingerprint(reference.stats)


class TestNoReferenceCycle:
    def test_processor_dies_when_execute_returns(self, monkeypatch):
        refs = []

        class Recorded(Processor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(runner, "Processor", Recorded)
        spec = RunSpec(config=figure4_configs()[0], benchmark="gzip",
                       measure=MEASURE, warmup=WARMUP)
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = execute(spec)
            assert result.gear == "specialized"
            assert len(refs) == 1
            assert refs[0]() is None
        finally:
            if enabled:
                gc.enable()

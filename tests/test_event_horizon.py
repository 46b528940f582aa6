"""Golden equivalence and behaviour of the event-horizon jump.

The jump (the specialized gear's dead-window skip, repro.core.specialize)
must be invisible in every statistic: the acceptance bar is a
``SimulationStats`` summary - IPC, every stall counter, deadlock moves,
the per-cluster histograms - bit-identical to the reference per-cycle
stepper, on every section-5 configuration and with the pipeline
sanitizer enabled.
"""

import pytest

from repro.config import figure4_configs, wsrs_rc
from repro.core.processor import DeadlockedPipeline, Processor, simulate
from repro.trace.profiles import spec_trace

MEASURE = 3_000
WARMUP = 3_000


def _trace(benchmark: str):
    return list(spec_trace(benchmark, MEASURE + WARMUP + 3_000))


def _fingerprint(stats):
    return (stats.summary(),
            list(stats.cluster_allocated),
            list(stats.cluster_issued))


def _run(config, trace, specialized, sanitize=False):
    processor = Processor(config, iter(trace),
                          gear="specialized" if specialized else "reference",
                          sanitize=True if sanitize else None)
    stats = processor.run(measure=MEASURE, warmup=WARMUP)
    return processor, stats


def _rotating_state(processor):
    return [(list(flist._queue), flist.avail, flist.staged,
             list(flist.batches))
            for flist in processor.renamer._rotating]


class TestGoldenEquivalence:
    @pytest.mark.parametrize("config", figure4_configs(),
                             ids=lambda c: c.name)
    def test_all_section5_configs_bit_identical(self, config):
        trace = _trace("gcc")  # branchy: exercises penalty-window jumps
        _, ref = _run(config, trace, specialized=False)
        fast_proc, fast = _run(config, trace, specialized=True)
        assert _fingerprint(ref) == _fingerprint(fast)
        assert fast_proc.horizon_jumps > 0

    def test_memory_bound_trace_bit_identical(self):
        trace = _trace("mcf")  # long memory stalls: the big jumps
        config = figure4_configs()[0]
        _, ref = _run(config, trace, specialized=False)
        fast_proc, fast = _run(config, trace, specialized=True)
        assert _fingerprint(ref) == _fingerprint(fast)
        assert fast_proc.horizon_cycles_skipped > fast_proc.horizon_jumps

    @pytest.mark.parametrize("config", [figure4_configs()[0],
                                        figure4_configs()[4]],
                             ids=lambda c: c.name)
    def test_sanitized_runs_stay_identical(self, config):
        trace = _trace("gcc")
        ref_proc, ref = _run(config, trace, specialized=False, sanitize=True)
        fast_proc, fast = _run(config, trace, specialized=True, sanitize=True)
        assert _fingerprint(ref) == _fingerprint(fast)
        # The jump-aware sanitizer still accounts one check per cycle.
        assert ref_proc.sanitizer.checks == fast_proc.sanitizer.checks


class TestGearSelection:
    def test_reference_gear_never_jumps(self):
        trace = _trace("gcc")
        ref_proc, _ = _run(figure4_configs()[0], trace, specialized=False)
        assert ref_proc.horizon_jumps == 0
        assert ref_proc.horizon_cycles_skipped == 0

    def test_recycling_renamer_jumps_bit_identically(self):
        # rename_impl=1 keeps staging and recycling through a dead
        # window; the jump advances that in closed form.
        config = wsrs_rc(512, rename_impl=1)
        trace = _trace("gzip")
        ref_proc, ref = _run(config, trace, specialized=False)
        processor, fast = _run(config, trace, specialized=True)
        assert processor.gear == "specialized"
        assert processor.horizon_jumps > 0
        assert _fingerprint(ref) == _fingerprint(fast)
        # Plentiful registers hide a wrong rotation from the stats, so
        # compare the register order and bookkeeping of every subset.
        assert _rotating_state(processor) == _rotating_state(ref_proc)

    def test_sanitized_recycling_renamer_jumps_cleanly(self):
        config = wsrs_rc(512, rename_impl=1)
        trace = _trace("mcf")
        ref_proc, ref = _run(config, trace, specialized=False, sanitize=True)
        processor, fast = _run(config, trace, specialized=True, sanitize=True)
        assert processor.gear == "specialized"
        assert processor.horizon_jumps > 0
        assert _fingerprint(ref) == _fingerprint(fast)
        assert _rotating_state(processor) == _rotating_state(ref_proc)
        assert processor.sanitizer.checks == ref_proc.sanitizer.checks

    def test_simulate_helper_exposes_the_knob(self):
        trace = _trace("gzip")
        ref = simulate(figure4_configs()[0], iter(trace), measure=MEASURE,
                       warmup=WARMUP, gear="reference")
        fast = simulate(figure4_configs()[0], iter(trace), measure=MEASURE,
                        warmup=WARMUP, gear="specialized")
        assert _fingerprint(ref) == _fingerprint(fast)


class TestDeadlockProof:
    def test_horizon_without_events_raises_immediately(self):
        # A branch stall with nothing in flight can never clear: the
        # reference stepper would spin _PROGRESS_LIMIT cycles before
        # giving up, the fast path proves the deadlock on the spot.
        processor = Processor(figure4_configs()[0], iter([]),
                              gear="specialized")
        processor._waiting_branch = object()  # never-resolving branch
        with pytest.raises(DeadlockedPipeline, match="event horizon"):
            processor.run(measure=1)


class TestRunSpecPlumbing:
    def test_runspec_gear_round_trip(self):
        from repro.experiments.runner import RunSpec, execute

        config = figure4_configs()[0]
        results = {}
        for gear, knobs in (("reference", {"gear": "reference"}),
                            ("specialized", {})):
            result = execute(RunSpec(config=config, benchmark="vpr",
                                     measure=MEASURE, warmup=WARMUP,
                                     **knobs))
            assert result.gear == gear
            results[gear] = result.stats
        assert _fingerprint(results["reference"]) \
            == _fingerprint(results["specialized"])

    def test_sweep_cells_default_to_fast_unparanoid(self):
        from repro.experiments.runner import RunSpec

        spec = RunSpec(config=figure4_configs()[0], benchmark="gzip")
        assert spec.gear is None
        assert not spec.sanitize

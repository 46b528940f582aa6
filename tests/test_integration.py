"""End-to-end integration tests across subsystems."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import baseline_rr_256, figure4_configs, ws_rr, wsrs_rc
from repro.core.processor import Processor, simulate
from repro.frontend.predictors import AlwaysTakenPredictor
from repro.isa.registers import isa_machine_config
from repro.trace.microbench import microbenchmark_trace
from repro.trace.profiles import spec_trace
from tests.conftest import random_trace


class TestIsaToSimulator:
    """Real assembled programs through every machine organisation."""

    @pytest.mark.parametrize("kernel", ["daxpy", "fib", "memcpy"])
    def test_kernels_complete_on_every_config(self, kernel):
        trace = list(microbenchmark_trace(kernel, n=64))
        for config in figure4_configs():
            stats = simulate(isa_machine_config(config), iter(trace),
                             measure=len(trace), sanitize=True)
            assert stats.committed == len(trace), config.name

    def test_serial_chain_ipc_is_organisation_insensitive(self):
        """pointer_chase is latency-bound: all machines within ~15%."""
        trace = list(microbenchmark_trace("pointer_chase", n=128))
        ipcs = []
        for config in (baseline_rr_256(), ws_rr(512), wsrs_rc(512)):
            stats = simulate(isa_machine_config(config), iter(trace),
                             measure=len(trace))
            ipcs.append(stats.ipc)
        assert max(ipcs) / min(ipcs) < 1.15

    def test_trace_replays_identically(self):
        trace = list(microbenchmark_trace("matmul", n=6))
        config = isa_machine_config(wsrs_rc(512))
        first = simulate(config, iter(trace), measure=len(trace))
        second = simulate(config, iter(trace), measure=len(trace))
        assert first.cycles == second.cycles


class TestSyntheticToSimulator:
    def test_warmup_changes_measured_results(self):
        cold = simulate(baseline_rr_256(), spec_trace("gzip", 20_000),
                        measure=10_000)
        warm = simulate(baseline_rr_256(), spec_trace("gzip", 20_000),
                        measure=10_000, warmup=10_000)
        assert warm.ipc > cold.ipc  # warm caches and predictor

    def test_stats_conservation(self):
        stats = simulate(baseline_rr_256(), spec_trace("gcc", 8000),
                         measure=8000)
        assert stats.committed <= stats.dispatched
        assert stats.issued >= stats.committed
        assert stats.mispredictions <= stats.branches

    def test_memory_bound_workload_touches_l2(self):
        stats = simulate(baseline_rr_256(), spec_trace("mcf", 8000),
                         measure=8000)
        assert stats.l2_misses > 0

    def test_cache_friendly_workload_mostly_hits(self):
        stats = simulate(baseline_rr_256(), spec_trace("facerec", 12_000),
                         measure=6_000, warmup=6_000)
        loads = max(stats.loads, 1)
        assert stats.l1_misses / loads < 0.2


class TestWsEquivalence:
    """Write specialization with round-robin must behave like the
    conventional machine when registers are plentiful (section 2.4)."""

    def test_ws_ipc_close_to_baseline_on_random_work(self):
        trace = random_trace(6000, seed=11)
        base = simulate(baseline_rr_256(), iter(trace), measure=6000,
                        predictor=AlwaysTakenPredictor())
        ws = simulate(ws_rr(512), iter(trace), measure=6000,
                      predictor=AlwaysTakenPredictor())
        # identical penalty for this comparison
        ws_same_penalty = simulate(ws_rr(512, mispredict_penalty=17),
                                   iter(trace), measure=6000,
                                   predictor=AlwaysTakenPredictor())
        assert abs(ws_same_penalty.ipc - base.ipc) / base.ipc < 0.05
        assert ws.committed == base.committed


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_processor_invariants_on_random_traces(seed):
    """Any structurally valid trace must commit fully, in order, without
    violating the WSRS read/write constraints."""
    trace = random_trace(400, seed=seed)
    stats = simulate(wsrs_rc(512), iter(trace), measure=400,
                     sanitize=True)
    assert stats.committed == 400
    assert stats.cycles > 0


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rename_impl1_also_completes_random_traces(seed):
    trace = random_trace(400, seed=seed)
    stats = simulate(ws_rr(512, rename_impl=1), iter(trace), measure=400)
    assert stats.committed == 400

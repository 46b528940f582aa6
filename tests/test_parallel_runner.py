"""Tests for the parallel experiment engine.

The contract under test (ISSUE: parallel experiment engine): fanning a
matrix out over worker processes must be invisible in the results -
``run_matrix(workers=N)`` returns bit-identical statistics to the serial
``workers=1`` path, only faster.  These tests pin the pieces that
contract rests on: picklable specs/results, deterministic per-cell
execution, spec-order reassembly, and the progress stream.
"""

import os
import pickle
import signal
import threading
import time

import pytest

from repro.config import baseline_rr_256, two_cluster_4way, wsrs_rc
from repro.core.processor import Processor
from repro.experiments.runner import (
    ExperimentInterrupted,
    RunSpec,
    TRACE_SLACK,
    execute,
    execute_many,
    matrix_specs,
    resolve_workers,
    run_matrix,
    sigterm_interrupts,
    warm_trace_cache,
)
from repro.trace import cache as cache_mod
from repro.trace.cache import TraceCache

MINI_BENCHMARKS = ("gzip", "mcf", "wupwise")
MINI_MEASURE = 2_000
MINI_WARMUP = 1_000


def mini_configs():
    return [baseline_rr_256(), wsrs_rc(512)]


def mini_specs():
    return matrix_specs(mini_configs(), MINI_BENCHMARKS,
                        measure=MINI_MEASURE, warmup=MINI_WARMUP)


class TestResolveWorkers:
    def test_none_means_every_core(self):
        assert resolve_workers(None) >= 1

    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)


class TestPicklability:
    """Everything crossing the pool boundary must pickle."""

    def test_spec_round_trips(self):
        spec = RunSpec(config=wsrs_rc(512), benchmark="gzip",
                       measure=100, warmup=50)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.trace_length == 150 + TRACE_SLACK

    def test_result_and_stats_round_trip(self):
        spec = RunSpec(config=baseline_rr_256(), benchmark="gzip",
                       measure=500, warmup=0)
        result = execute(spec)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.spec == spec
        assert clone.stats.summary() == result.stats.summary()
        assert clone.ipc == result.ipc


class TestExecuteMany:
    def test_results_come_back_in_spec_order(self):
        specs = mini_specs()
        results = execute_many(specs, workers=1)
        assert [r.spec for r in results] == specs

    def test_serial_progress_streams_every_cell(self):
        specs = mini_specs()
        seen = []
        execute_many(specs, workers=1, progress=lambda r: seen.append(r.spec))
        assert seen == specs

    def test_parallel_progress_streams_every_cell(self):
        specs = mini_specs()
        seen = []
        execute_many(specs, workers=2, progress=lambda r: seen.append(r.spec))
        assert sorted(seen, key=specs.index) == specs

    def test_single_spec_stays_in_process(self):
        # len(specs) <= 1 short-circuits to the serial path even with
        # workers > 1: no pool spin-up for a lone cell.
        spec = RunSpec(config=baseline_rr_256(), benchmark="gzip",
                       measure=200, warmup=0)
        (result,) = execute_many([spec], workers=8)
        assert result.stats.committed >= 200

    def test_warm_trace_cache_counts_distinct_workloads(self):
        specs = mini_specs()
        # 3 benchmarks x 2 configs but only 3 distinct workloads
        assert warm_trace_cache(specs) == len(MINI_BENCHMARKS)


class TestGracefulInterrupt:
    """ISSUE 5 satellite: Ctrl-C / SIGTERM mid-sweep tears the pool down
    cleanly - no orphaned workers - and flushes partial results."""

    def test_keyboard_interrupt_flushes_partials(self):
        specs = matrix_specs(mini_configs(), MINI_BENCHMARKS,
                             measure=500, warmup=0)

        def interrupt_after_first(result):
            raise KeyboardInterrupt

        with pytest.raises(ExperimentInterrupted) as excinfo:
            execute_many(specs, workers=2,
                         progress=interrupt_after_first)
        partial = excinfo.value.results
        # Exactly the cells recorded before the interrupt - here, the
        # one whose progress callback pulled the plug.
        assert len(partial) == 1
        assert partial[0].spec in specs
        assert partial[0].stats.committed >= 500
        assert "1 cell(s) completed" in str(excinfo.value)

    def test_interrupt_leaves_no_orphan_workers(self):
        import multiprocessing

        specs = matrix_specs(mini_configs(), MINI_BENCHMARKS,
                             measure=500, warmup=0)

        def interrupt(result):
            raise KeyboardInterrupt

        before = len(multiprocessing.active_children())
        with pytest.raises(ExperimentInterrupted):
            execute_many(specs, workers=2, progress=interrupt)
        # shutdown_pool joined every worker before re-raising.
        assert len(multiprocessing.active_children()) <= before

    def test_sigterm_mid_sweep_becomes_experiment_interrupted(self):
        specs = matrix_specs(mini_configs(), MINI_BENCHMARKS,
                             measure=500, warmup=0)
        fired = []

        def term_after_first(result):
            if not fired:
                fired.append(result)
                os.kill(os.getpid(), signal.SIGTERM)

        with pytest.raises(ExperimentInterrupted) as excinfo:
            execute_many(specs, workers=2, progress=term_after_first)
        assert len(excinfo.value.results) >= 1

    def test_sigterm_context_restores_previous_handler(self):
        previous = signal.getsignal(signal.SIGTERM)
        with sigterm_interrupts():
            assert signal.getsignal(signal.SIGTERM) is not previous
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(0.5)  # the handler fires at this checkpoint
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_sigterm_context_is_noop_off_main_thread(self):
        outcome = {}

        def body():
            try:
                with sigterm_interrupts():
                    outcome["entered"] = True
            except BaseException as exc:  # pragma: no cover
                outcome["error"] = exc

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(10)
        assert outcome == {"entered": True}


class TestParallelSerialParity:
    """ISSUE acceptance: workers=N bit-identical to workers=1."""

    def test_mini_matrix_bit_identical(self):
        configs = mini_configs()
        serial = run_matrix(configs, MINI_BENCHMARKS, measure=MINI_MEASURE,
                            warmup=MINI_WARMUP, workers=1)
        parallel = run_matrix(configs, MINI_BENCHMARKS,
                              measure=MINI_MEASURE, warmup=MINI_WARMUP,
                              workers=2)
        assert set(serial) == set(parallel) == set(MINI_BENCHMARKS)
        for benchmark in MINI_BENCHMARKS:
            for config in configs:
                ours = serial[benchmark][config.name]
                theirs = parallel[benchmark][config.name]
                # bit-identical, not approximately equal
                assert ours.ipc == theirs.ipc
                assert ours.unbalancing_degree == theirs.unbalancing_degree
                assert ours.stats.summary() == theirs.stats.summary()
                assert (ours.stats.cluster_issued
                        == theirs.stats.cluster_issued)

    def test_forked_workers_extend_their_own_trace_tail(self, monkeypatch):
        # A 2-cluster 4-way machine holds fewer instructions in flight
        # than an 8-way one, so the two read different stretches of the
        # lazily generated slack tail.
        configs = [two_cluster_4way(), baseline_rr_256()]
        specs = matrix_specs(configs, ("gzip",), measure=MINI_MEASURE,
                             warmup=MINI_WARMUP)
        prefix = MINI_MEASURE + MINI_WARMUP
        cache = TraceCache()
        monkeypatch.setattr(cache_mod, "_default_cache", cache)
        parallel = execute_many(specs, workers=2)
        entry = cache.get("gzip", specs[0].trace_length)
        # The parent warmed the eager prefix only; the workers'
        # extensions of the tail stayed in the workers.
        assert entry.generated == prefix
        serial = execute_many(specs, workers=1)
        assert entry.generated > prefix
        for ours, theirs in zip(serial, parallel):
            assert ours.stats.summary() == theirs.stats.summary()
            assert ours.stats.cluster_issued == theirs.stats.cluster_issued

        overruns = set()
        for config in configs:
            trace = iter(entry)
            Processor(config, trace).run(measure=MINI_MEASURE,
                                         warmup=MINI_WARMUP)
            unread = sum(1 for _ in trace)
            overruns.add(len(entry) - unread - prefix)
        assert len(overruns) == len(configs) and min(overruns) > 0

    def test_run_matrix_progress_callback_signature(self):
        rows = []
        run_matrix([baseline_rr_256()], ("gzip", "mcf"),
                   measure=500, warmup=0, workers=1,
                   progress=lambda b, c, r: rows.append((b, c, r.ipc)))
        assert [(b, c) for b, c, _ in rows] == [
            ("gzip", "RR 256"), ("mcf", "RR 256")]

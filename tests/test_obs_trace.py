"""Tests for the structured pipeline trace (repro.obs.tracer/analyzer)."""

import gzip
import json

import pytest

from repro.config import baseline_rr_256, wsrs_rc
from repro.core.processor import Processor
from repro.frontend.predictors import AlwaysTakenPredictor
from repro.obs.analyzer import format_summary, read_events, summarize
from repro.obs.tracer import PipelineTracer, TraceSchemaError
from repro.trace.profiles import spec_trace
from tests.conftest import ialu, load

MEASURE = 2_000


def _traced_run(path, gear=None, **tracer_kwargs):
    config = wsrs_rc(512)
    with PipelineTracer(str(path), **tracer_kwargs) as tracer:
        processor = Processor(config, spec_trace("gzip", MEASURE + 4_096),
                              gear=gear, tracer=tracer)
        stats = processor.run(measure=MEASURE)
        tracer.close(stats)
    return stats


class TestTracerRoundTrip:
    def test_full_window_counts_match_stats(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stats = _traced_run(path)
        summary = summarize(str(path))
        assert summary["events"]["D"] == stats.dispatched
        assert summary["events"]["I"] == stats.issued
        assert summary["events"]["R"] == stats.committed
        assert summary["trailer"]["cycles"] == stats.cycles
        assert summary["trailer"]["committed"] == stats.committed
        assert sum(summary["op_mix"].values()) == stats.dispatched
        assert summary["cluster_dispatch"] == stats.cluster_allocated

    def test_gzip_roundtrip(self, tmp_path):
        plain = tmp_path / "run.jsonl"
        packed = tmp_path / "run.jsonl.gz"
        _traced_run(plain)
        _traced_run(packed)
        with open(plain, "rb") as handle:
            raw = handle.read()
        with gzip.open(packed, "rb") as handle:
            unpacked = handle.read()
        assert raw == unpacked
        assert packed.stat().st_size < plain.stat().st_size

    def test_event_ordering_per_uop(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(path)
        dispatch, issue = {}, {}
        for event in read_events(str(path)):
            if event["t"] == "D":
                dispatch[event["q"]] = event["c"]
            elif event["t"] == "I":
                issue[event["q"]] = event["c"]
                assert event["c"] > dispatch[event["q"]]
            elif event["t"] == "R":
                assert event["c"] >= issue[event["q"]]

    def test_gears_emit_identical_pipeline_events(self, tmp_path):
        """Dispatch/issue/commit never happen inside a dead window, so
        the two gears' traces differ only in jump records."""
        specialized = tmp_path / "fast.jsonl"
        reference = tmp_path / "ref.jsonl"
        _traced_run(specialized)
        _traced_run(reference, gear="reference")
        fast_events = [e for e in read_events(str(specialized))
                       if e["t"] in ("D", "I", "R")]
        ref_events = [e for e in read_events(str(reference))
                      if e["t"] in ("D", "I", "R")]
        assert fast_events == ref_events
        jumps = [e for e in read_events(str(specialized)) if e["t"] == "J"]
        assert jumps, "gzip on the specialized gear must jump at least once"
        assert all(e["to"] > e["c"] for e in jumps)


def _traced_micro(path, trace):
    """Trace a hand-built instruction list to its end on RR 256."""
    with PipelineTracer(str(path)) as tracer:
        processor = Processor(baseline_rr_256(), trace, tracer=tracer,
                              predictor=AlwaysTakenPredictor())
        tracer.close(processor.run(measure=max(1, len(trace))))
    return summarize(str(path))


class TestAnalyzerWaits:
    def test_records_every_committed_instruction(self, tmp_path):
        path = tmp_path / "run.jsonl"
        summary = _traced_micro(path, [ialu(1 + i % 8) for i in range(40)])
        assert summary["events"]["R"] == 40
        retired = [e["q"] for e in read_events(str(path)) if e["t"] == "R"]
        assert retired == list(range(40))

    def test_milestones_are_ordered(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_micro(path, [ialu(1 + i % 8) for i in range(30)])
        cycles = {}
        for event in read_events(str(path)):
            if event["t"] in ("D", "I", "R"):
                cycles.setdefault(event["q"], {})[event["t"]] = event["c"]
        assert len(cycles) == 30
        for milestones in cycles.values():
            # Completion lies strictly after issue and no later than commit.
            assert milestones["D"] < milestones["I"] < milestones["R"]

    def test_load_miss_latency_visible(self, tmp_path):
        # A compulsory miss: 94 cycles from issue to commit.
        summary = _traced_micro(tmp_path / "run.jsonl",
                                [load(1, 2, addr=0x8000)])
        assert summary["mean_commit_wait"] == 94

    def test_dependent_chain_shows_issue_wait(self, tmp_path):
        summary = _traced_micro(tmp_path / "run.jsonl",
                                [ialu(1, src1=1) for _ in range(20)])
        assert summary["mean_issue_wait"] > 1.0

    def test_waits_are_zero_without_uops(self, tmp_path):
        summary = _traced_micro(tmp_path / "run.jsonl", [])
        assert summary["events"]["D"] == 0
        assert summary["mean_issue_wait"] == 0.0
        assert summary["mean_commit_wait"] == 0.0


class TestSampling:
    def test_window_bounds_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(path, start=200, window=300)
        cycles = [event["c"] for event in read_events(str(path))
                  if event["t"] in ("D", "I", "R", "J")]
        assert cycles, "the sampled window must capture events"
        assert min(cycles) >= 200
        assert max(cycles) < 500

    def test_periodic_windows(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(path, start=0, window=100, every=400)
        cycles = [event["c"] for event in read_events(str(path))
                  if event["t"] in ("D", "I", "R", "J")]
        assert cycles
        assert all(cycle % 400 < 100 for cycle in cycles)

    def test_sampling_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PipelineTracer(str(tmp_path / "x.jsonl"), start=-1)
        with pytest.raises(ValueError):
            PipelineTracer(str(tmp_path / "x.jsonl"), window=0)
        with pytest.raises(ValueError):
            PipelineTracer(str(tmp_path / "x.jsonl"), every=100)
        with pytest.raises(ValueError):
            PipelineTracer(str(tmp_path / "x.jsonl"), window=100,
                           every=50)


class TestSchema:
    def test_header_first_and_versioned(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(path)
        events = list(read_events(str(path)))
        assert events[0]["t"] == "H"
        assert events[0]["v"] == 1
        assert events[0]["config"] == "WSRS RC S 512"
        assert events[-1]["t"] == "E"

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"t": "H", "v": 99, "config": "x",
                                     "clusters": 4, "start": 0,
                                     "window": None, "every": None}))
            handle.write("\n")
        with pytest.raises(TraceSchemaError):
            summarize(str(path))

    def test_headerless_stream_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"t": "D", "c": 0, "q": 0,
                                     "op": "IALU", "cl": 0, "sw": 0}))
            handle.write("\n")
        with pytest.raises(TraceSchemaError):
            summarize(str(path))

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceSchemaError):
            summarize(str(path))

    def test_format_summary_mentions_key_fields(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(path)
        text = format_summary(summarize(str(path)))
        assert "WSRS RC S 512" in text
        assert "dispatch=" in text
        assert "run totals" in text

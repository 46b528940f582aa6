"""Tests for the load-test harness: bit-identical verification against
direct execution, result-store fast path on repeat passes, benchmark
record shape."""

import json

import pytest

from repro.service.loadtest import fleet_speedup, percentile, run


class TestPercentile:
    def test_empty_is_none(self):
        # An empty sample has no latency - 0.0 would let an all-shed
        # pass report perfect percentiles.
        assert percentile([], 0.95) is None
        assert percentile([], 0.0) is None

    def test_nearest_rank_endpoints(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 1.0) == 5.0

    def test_true_nearest_rank(self):
        # ceil(q*N), 1-based: the median of four samples is the 2nd,
        # not the 3rd (which round-half-even interpolation would give).
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.51) == 3.0
        assert percentile(list(range(1, 101)), 0.95) == 95

    def test_single_value(self):
        assert percentile([7.0], 0.99) == 7.0


def _scaling(*points):
    """Scaling points at 1, 2, ... workers, one row of pass
    throughputs each."""
    return [{"workers": index + 1,
             "passes": [{"throughput_jobs_per_s": value}
                        for value in throughputs]}
            for index, throughputs in enumerate(points)]


class TestFleetSpeedup:
    def test_one_slow_pass_does_not_move_the_speedup(self):
        # A late round at 2 nodes (2.6 jobs/s) would read 2.167x from
        # that pass alone; the medians read 3.1 / 1.2.
        scaling = _scaling((1.2, 1.2, 1.1), (3.1, 2.6, 3.2))
        assert fleet_speedup(scaling, 8) == (round(3.1 / 1.2, 3), 2)

    def test_compares_the_first_and_last_points(self):
        scaling = _scaling((1.0, 1.0, 1.0), (9.0, 9.0, 9.0),
                           (2.0, 2.5, 3.0))
        assert fleet_speedup(scaling, 8) == (2.5, 3)

    def test_a_dead_baseline_reads_zero(self):
        assert fleet_speedup(_scaling((0.0, 0.0, 0.0), (2.0, 2.0, 2.0)),
                             8) == (0.0, 2)

    @pytest.mark.parametrize("cpu_count, basis", [
        (2, 2),        # three CPU-bound nodes on two cores gain <= 2x
        (8, 3),
        (None, 3),     # os.cpu_count() could not tell
    ])
    def test_the_basis_is_min_of_workers_and_cpu_count(self, cpu_count,
                                                       basis):
        scaling = _scaling((1.0, 1.0, 1.0), (1.8, 1.8, 1.8),
                           (1.5, 1.5, 1.5))
        assert fleet_speedup(scaling, cpu_count) == (1.5, basis)


@pytest.fixture(scope="module")
def record_and_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_service.json"
    messages = []
    record = run(clients=2, benchmarks=("gzip",), configs=("RR 256",),
                 measure=1_500, warmup=500, seed=1, passes=2,
                 out=str(out), server_workers=2,
                 announce=messages.append)
    return record, out, messages


class TestMiniLoadtest:
    def test_service_results_are_bit_identical(self, record_and_path):
        record, _out, _messages = record_and_path
        assert record["identical"] is True

    def test_second_pass_hits_the_result_store(self, record_and_path):
        record, _out, _messages = record_and_path
        # Pass 2 re-submits identical work: every job short-circuits.
        assert record["cache_hits"] >= record["cells"]
        assert record["passes"][1]["cached_jobs"] == record["cells"]

    def test_benchmark_record_shape(self, record_and_path):
        record, out, _messages = record_and_path
        assert record["benchmark"] == "service-loadtest"
        assert len(record["passes"]) == 2
        assert record["degraded"] is False
        for pass_record in record["passes"]:
            assert pass_record["jobs"] == record["cells"]
            assert pass_record["completed"] == pass_record["jobs"]
            assert pass_record["degraded"] is False
            assert pass_record["failures"] == []
            assert pass_record["throughput_jobs_per_s"] > 0
            latency = pass_record["latency_ms"]
            assert latency["p50"] <= latency["p95"] <= latency["p99"]
            assert 0.0 <= pass_record["shed_rate"] <= 1.0
        assert json.loads(out.read_text()) == record

    def test_announcements_cover_the_run(self, record_and_path):
        _record, _out, messages = record_and_path
        text = "\n".join(messages)
        assert "embedded service" in text
        assert "pass 2/2" in text
        assert "identical=True" in text


def test_rejects_zero_passes():
    with pytest.raises(ValueError):
        run(passes=0)


def test_all_shed_pass_reports_null_latency(monkeypatch):
    """A pass where no job completes must say so - null percentiles and
    a degraded flag - instead of masking the outage as 0.0 ms."""
    from repro.service import loadtest
    from repro.service.client import ServiceSaturated

    class SheddingClient(loadtest.ServiceClient):
        def submit_and_wait(self, request, **kwargs):
            self.sheds_seen += 1
            raise ServiceSaturated("submission shed past the budget")

    monkeypatch.setattr(loadtest, "ServiceClient", SheddingClient)
    record = loadtest.run(clients=2, benchmarks=("gzip",),
                          configs=("RR 256",), measure=800, warmup=200,
                          seed=1, passes=1, out=None, server_workers=1,
                          direct_workers=1, announce=lambda line: None)
    assert record["degraded"] is True
    assert record["identical"] is False
    pass_record = record["passes"][0]
    assert pass_record["completed"] == 0
    assert pass_record["failures"]
    assert pass_record["latency_ms"] == {"p50": None, "p95": None,
                                         "p99": None}

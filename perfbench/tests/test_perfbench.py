"""Tests of the benchmark itself (tiny sizes; about a minute).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import golden  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.config import figure4_configs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: The tiny lattice has no golden, so verification cross-checks against
#: the reference gear.
SEED = 4242
TINY_LATTICE = {"specializations": ["none", "wsrs"], "clusters": [4],
                "registers": [128], "widths": [8],
                "steerings": ["round_robin", "random_commutative"],
                "deadlocks": ["auto"], "benchmarks": ["gzip"]}


def tiny_explore(**kwargs):
    return workloads.Explore(SEED, lattice=TINY_LATTICE, **kwargs)


def tiny_service(tmp_path, **kwargs):
    return workloads.Service(1, run_dir=str(tmp_path), measure=400,
                             warmup=400, configs=figure4_configs()[:2],
                             expected={}, **kwargs)


def run_and_verify(workload, trace):
    try:
        report = workload.run(0.01, trace)
    finally:
        workload.close()
    workload.verify(report)
    return report


def test_per_layer_names_match_benchmark_json():
    assert set(workloads.PER_LAYER) == set(PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
def test_explore_smoke(trace):
    report = run_and_verify(tiny_explore(), trace)
    assert report.failed == 0 and report.attempted >= 2
    assert set(report.end_to_end) | {"setup_s", "peak_rss_mb"} \
        == set(END_TO_END)
    if trace:
        assert set(report.layers) == set(PER_LAYER)
        assert report.layers["trace.misses"] >= 1
        assert report.layers["core.run_s"] > 0
        assert report.layers["explore.plan_frac"] > 0
        assert 0 <= report.layers["explore.pruned_frac"] <= 1
        assert report.layers["experiments.parallel_eff"] > 0


def test_service_smoke(tmp_path):
    report = run_and_verify(tiny_service(tmp_path), True)
    assert report.failed == 0 and report.attempted > 0
    assert report.end_to_end["jobs_per_s"] > 0
    assert set(report.layers) == set(PER_LAYER)
    assert report.layers["service.polls_per_job"] >= 1
    assert report.layers["service.submit_frac"] > 0
    assert os.listdir(tmp_path) == []  # stores removed


def test_perturbed_golden_counts_as_failure():
    first = tiny_explore().order[0]
    truth = tiny_explore().truth(first)
    key = sorted(truth)[0]
    broken = dict(truth, **{key: "0" * 24})
    good = run_and_verify(tiny_explore(expected={str(first): truth}), False)
    assert good.failed == 0
    report = run_and_verify(tiny_explore(expected={str(first): broken}),
                            False)
    # The warm-up round and the one timed round on that trace seed both
    # hit the bad digest.
    assert report.failed == 2
    assert report.mismatches == [key, key]


def test_traced_top_level_spans_cover_the_round():
    workload = tiny_explore()
    report = workloads.Report()
    workload._traced_round(report, workload.order[0])
    recorded = report.recorders[0].spans
    root = next(span for span in recorded if span.name == "round")
    assert spans.coverage(recorded, root) > 0.9
    names = {span.name for span in recorded}
    assert {"trace.get", "core.build", "core.run", "experiments.cell",
            "experiments.warm", "experiments.sweep", "explore.plan",
            "explore.payload"} <= names
    # Worker spans came back and hang under the sweep.
    sweep = next(span for span in recorded
                 if span.name == "experiments.sweep")
    cells = [span for span in recorded if span.name == "experiments.cell"]
    assert cells and all(span.parent == sweep.id for span in cells)
    # Self time excludes the children.
    own = spans.self_seconds(recorded)
    assert 0 <= own[sweep.id] < sweep.seconds


def test_rounds_cycle_through_the_trace_seeds_in_seed_order():
    class Instant(workloads.Explore):
        def round(self, trace_seed):
            time.sleep(0.001)
            return workloads.Round(trace_seed=trace_seed, wall=0.001,
                                   insts=1, latencies=[0.001], observed={})

    workload = Instant(7, expected={})
    order = workload.order
    assert sorted(order) == list(workloads.Explore.trace_seeds)
    assert Instant(7, expected={}).order == order  # same seed, same inputs
    workload.run(0.1, trace=False)
    seeds = [r.trace_seed for r in workload._rounds]
    assert seeds[0] == order[0]  # the untimed warm-up round
    assert seeds[1:2 * len(order) + 1] == order * 2
    # However short the run, every trace seed gets a timed round.
    short = Instant(7, expected={})
    short.run(0.0, trace=False)
    assert [r.trace_seed for r in short._rounds] == order[:1] + order


def test_seed_mean_weighs_each_trace_seed_once():
    rounds = [workloads.Round(trace_seed=seed, wall=wall, insts=1,
                              latencies=[], observed={})
              for seed, wall in ((1, 1.0), (1, 1.0), (1, 1.0), (2, 3.0))]
    assert workloads.seed_mean(rounds, lambda r: r.wall) == 2.0


def test_self_time_subtracts_overlapping_children():
    parent = spans.Span(id="p", name="a", start=0, end=100)
    kids = [spans.Span(id="c1", name="b", start=10, end=50, parent="p"),
            spans.Span(id="c2", name="b", start=40, end=70, parent="p"),
            spans.Span(id="c3", name="b", start=90, end=150, parent="p")]
    assert spans.self_seconds([parent] + kids)["p"] == pytest.approx(
        (100 - 60 - 10) / 1e9)


def test_uninstall_restores_entry_points():
    from repro.experiments import runner
    from repro.trace.cache import TraceCache

    before = (runner.execute, runner.execute_many, TraceCache.get)
    with spans.traced(spans.Recorder()):
        assert runner.execute is spans.traced_execute
    assert (runner.execute, runner.execute_many, TraceCache.get) == before


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service",
         "--seed", "3", "--seconds", "1"] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_with_its_unit(trace):
    done = _run_bench(ROOT, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = PER_LAYER if trace == "1" else END_TO_END
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == wanted
    if trace == "0":
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_run_fails_without_the_simulator(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run_bench(tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_golden_digest_is_order_independent():
    assert golden.digest({"a": 1, "b": 2.5}) == golden.digest(
        {"b": 2.5, "a": 1})

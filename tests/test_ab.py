"""Tests for the same-host A/B gate (``wsrs ab``)."""

import json
import subprocess

import pytest

from repro.cli import main
from repro.experiments import ab
from repro.experiments.ab import compare


def pairs(base, change):
    return list(zip(base, change))


SPREAD = [98.0, 99.0, 100.0, 101.0, 102.0, 98.0, 99.0, 100.0, 101.0,
          102.0]


class TestCompare:
    def test_gain_needs_nine_wins_and_a_move_past_the_spread(self):
        faster = [value * 1.1 for value in SPREAD]
        result = compare(pairs(SPREAD, faster), "higher", 0.25)
        assert (result.wins, result.losses) == (10, 0)
        assert result.verdict == "gain"
        # Nine wins and a tenth pair lost still clears the rule.
        faster[0] = SPREAD[0] - 1
        assert compare(pairs(SPREAD, faster), "higher", 0.25).verdict \
            == "gain"

    def test_wins_inside_the_spread_are_no_gain(self):
        nudged = [value + 0.5 for value in SPREAD]
        result = compare(pairs(SPREAD, nudged), "higher", 0.25)
        assert result.wins == 10
        assert result.verdict == "same"

    def test_regression_by_bound(self):
        # Three wins of ten, yet the median is 30% worse.
        change = [value * 0.7 for value in SPREAD]
        for index in range(3):
            change[index] = SPREAD[index] + 1
        result = compare(pairs(SPREAD, change), "higher", 0.25)
        assert result.losses == 7
        assert result.verdict == "regression"

    def test_regression_by_nine_losses_past_the_spread(self):
        slower = [value * 0.9 for value in SPREAD]
        result = compare(pairs(SPREAD, slower), "higher", 0.25)
        assert (result.wins, result.losses) == (0, 10)
        assert result.verdict == "regression"
        # Eight losses are not enough when the median stays in bound.
        slower[0] = slower[1] = 200.0
        assert compare(pairs(SPREAD, slower), "higher", 0.25).verdict \
            == "same"

    def test_losses_inside_the_spread_are_no_regression(self):
        nudged = [value - 0.5 for value in SPREAD]
        assert compare(pairs(SPREAD, nudged), "higher", 0.25).verdict \
            == "same"

    def test_unresolved_when_the_base_spreads_wider_than_the_bound(self):
        wide = [50.0, 150.0] * 5
        result = compare(pairs(wide, list(wide)), "higher", 0.25)
        assert result.verdict == "unresolved"
        assert compare(pairs(wide, list(wide)), "higher", 2.0).verdict \
            == "same"

    def test_ties_count_for_neither_side(self):
        result = compare(pairs(SPREAD, list(SPREAD)), "lower", 0.25)
        assert (result.wins, result.losses) == (0, 0)
        assert result.verdict == "same"
        assert result.base == result.change

    def test_lower_is_better_flips_the_direction(self):
        higher = [value * 1.1 for value in SPREAD]
        assert compare(pairs(SPREAD, higher), "lower", 0.25).verdict \
            == "regression"
        assert compare(pairs(SPREAD, higher), "higher", 0.25).verdict \
            == "gain"
        lower = [value * 0.9 for value in SPREAD]
        result = compare(pairs(SPREAD, lower), "lower", 0.25)
        assert (result.wins, result.verdict) == (10, "gain")

    def test_quartiles(self):
        q1, median, q3 = ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (q1, median, q3) == (2.0, 3.0, 4.0)


STUB = '''\
import argparse, json, os, sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
parser = argparse.ArgumentParser()
parser.add_argument("--workload")
parser.add_argument("--seed", type=int)
parser.add_argument("--seconds")
args = parser.parse_args()
with open(os.path.join(ROOT, "knobs.json")) as handle:
    knobs = json.load(handle)
with open({log!r}, "a") as handle:
    handle.write(json.dumps({{"root": ROOT, "seed": args.seed,
                             "workload": args.workload,
                             "seconds": args.seconds,
                             "pythonpath": "PYTHONPATH" in os.environ}})
                 + "\\n")
if knobs.get("crash"):
    sys.exit(3)
metrics = {{"sim_kips": {{"value": knobs["kips"] + args.seed % 7}},
           "job_p90_ms": {{"value": 200.0 + args.seed % 5}}}}
print("a human-readable line first")
print(json.dumps({{"correct": knobs.get("correct", True),
                  "attempted": 10, "failed": knobs.get("failed", 0),
                  "metrics": metrics}}))
'''

BENCHMARK = {
    "run_seconds": 3,
    "workloads": [{"name": "explore"}],
    "end_to_end": [
        {"name": "sim_kips", "better": "higher", "bound": 0.25},
        {"name": "job_p90_ms", "better": "lower", "bound": 0.25},
    ],
}


def git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=test", "-c", "user.email=test@example.com",
         *args], cwd=repo, check=True, capture_output=True,
        text=True).stdout


@pytest.fixture
def stub_repo(tmp_path, monkeypatch):
    """A throwaway repository whose benchmark is a stub that logs every
    invocation and reports what ``knobs.json`` says."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    log = tmp_path / "runs.jsonl"
    (repo / "perfbench" / "run.py").write_text(STUB.format(log=str(log)))
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (repo / "knobs.json").write_text(json.dumps({"kips": 100.0}))
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "stub benchmark")
    monkeypatch.chdir(repo)
    monkeypatch.setenv("PYTHONPATH", str(tmp_path / "elsewhere"))

    def runs():
        return [json.loads(line) for line in log.read_text().splitlines()]

    def set_knobs(**knobs):
        (repo / "knobs.json").write_text(json.dumps(knobs))

    def worktrees():
        return git(repo, "worktree", "list").splitlines()

    return repo, runs, set_knobs, worktrees


class TestEndToEnd:
    def test_unchanged_tree_passes_with_alternating_paired_runs(
            self, stub_repo, capsys):
        repo, runs, _, worktrees = stub_repo
        assert main(["ab", "HEAD"]) == 0
        log = runs()
        assert len(log) == 2 * ab.PAIRS
        assert not any(entry["pythonpath"] for entry in log)
        assert {entry["seconds"] for entry in log} == {"3"}
        sides = ["change" if entry["root"] == str(repo) else "base"
                 for entry in log]
        for index in range(ab.PAIRS):
            first, second = log[2 * index], log[2 * index + 1]
            assert first["seed"] == second["seed"] == ab.SEED_BASE + index
            assert sorted(sides[2 * index:2 * index + 2]) \
                == ["base", "change"]
            assert sides[2 * index] \
                == ("base" if index % 2 == 0 else "change")
        assert len(worktrees()) == 1
        out = capsys.readouterr().out
        assert "sim_kips" in out and "ab: pass" in out

    def test_injected_regression_fails(self, stub_repo, capsys):
        _, runs, set_knobs, worktrees = stub_repo
        set_knobs(kips=50.0)
        assert main(["ab", "HEAD", "--seconds", "0.5"]) == 1
        assert {entry["seconds"] for entry in runs()} == {"0.5"}
        out = capsys.readouterr().out
        assert "regression" in out and "ab: FAIL" in out
        assert len(worktrees()) == 1

    def test_incorrect_run_fails(self, stub_repo, capsys):
        _, _, set_knobs, worktrees = stub_repo
        set_knobs(kips=100.0, correct=False)
        assert main(["ab", "HEAD"]) == 1
        assert "NOT CORRECT" in capsys.readouterr().out
        assert len(worktrees()) == 1

    def test_larger_failed_share_fails(self, stub_repo):
        _, _, set_knobs, _ = stub_repo
        set_knobs(kips=100.0, failed=1)
        assert main(["ab", "HEAD"]) == 1

    def test_crash_cleans_up_the_worktree(self, stub_repo, capsys):
        _, runs, set_knobs, worktrees = stub_repo
        set_knobs(crash=True)
        assert main(["ab", "HEAD"]) == 1
        assert "exited with code 3" in capsys.readouterr().err
        assert len(runs()) <= 2
        assert len(worktrees()) == 1

    def test_unknown_base_is_an_error(self, stub_repo, capsys):
        _, _, _, worktrees = stub_repo
        assert main(["ab", "no-such-commit"]) == 1
        assert "error:" in capsys.readouterr().err
        assert len(worktrees()) == 1

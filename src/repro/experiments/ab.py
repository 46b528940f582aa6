"""Same-host A/B gate over the repository benchmark (``wsrs ab``).

Checks out a base commit into a temporary detached ``git worktree`` and
runs :data:`PAIRS` pairs of ``perfbench/run.py`` on every workload that
``BENCHMARK.json`` declares: the base tree's copy against the working
tree's.  Each side runs its own tree's benchmark with ``PYTHONPATH``
removed, so neither imports the other's ``src/``.  Both runs of a pair
use the same seed, each pair a different one from :data:`SEED_BASE`,
and the side that runs first alternates from pair to pair, so a host
that drifts over minutes loads both sides alike.

For every end-to-end metric the report gives each side's median and
quartiles, the change's wins out of :data:`PAIRS` (ties count for
neither) and a verdict (:func:`compare`).  The gate fails on a
regression, on a run that is not ``correct``, or when the change fails
a larger share of its outputs than the base.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Pairs of runs per workload.
PAIRS = 10
#: Pair ``i`` runs both sides with seed ``SEED_BASE + i``.
SEED_BASE = 1001
#: A side that wins (or loses) at least this many pairs moved.
DECISIVE_PAIRS = 9
#: Longest one benchmark run may take (seconds): ``perfbench/run.py``
#: kills its workload after its ``RUN_LIMIT_S`` of 170 s, but not the
#: workload's own children, which can hold its stdout open for ever.
RUN_BOUND_S = 230.0

SIDES = ("base", "change")


class ABError(RuntimeError):
    """A benchmark run or a git step failed; no verdict is possible."""


@dataclass(frozen=True)
class Comparison:
    """One metric on one workload, over every pair."""

    base: Tuple[float, float, float]    # (q1, median, q3)
    change: Tuple[float, float, float]
    wins: int
    losses: int
    verdict: str  # "gain", "regression", "unresolved" or "same"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(pairs: Sequence[Tuple[float, float]], better: str,
            bound: float) -> Comparison:
    """Verdict on ``(base, change)`` value pairs of one metric.

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` the relative
    worsening of the median that ``BENCHMARK.json`` tolerates.

    * gain: the change wins at least :data:`DECISIVE_PAIRS` pairs and
      the medians differ by more than the base's interquartile range;
    * regression: the change's median is worse than the base's by more
      than ``bound``, or the change loses at least
      :data:`DECISIVE_PAIRS` pairs and the medians differ by more than
      the base's interquartile range;
    * unresolved: neither, and the base's own interquartile range is
      wider than ``bound`` of its median;
    * same: otherwise.
    """
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for base, change in pairs if sign * (change - base) > 0)
    losses = sum(1 for base, change in pairs if sign * (change - base) < 0)
    base_q = quartiles([base for base, _ in pairs])
    change_q = quartiles([change for _, change in pairs])
    spread = base_q[2] - base_q[0]
    moved = abs(change_q[1] - base_q[1]) > spread
    worsening = sign * (base_q[1] - change_q[1]) / abs(base_q[1]) \
        if base_q[1] else 0.0
    if wins >= DECISIVE_PAIRS and moved:
        verdict = "gain"
    elif worsening > bound or (losses >= DECISIVE_PAIRS and moved):
        verdict = "regression"
    elif base_q[1] and spread / abs(base_q[1]) > bound:
        verdict = "unresolved"
    else:
        verdict = "same"
    return Comparison(base_q, change_q, wins, losses, verdict)


def _git(root: str, *args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=root, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise ABError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


@contextlib.contextmanager
def base_worktree(root: str, commit: str) -> Iterator[str]:
    """A detached worktree of ``commit``, removed however the block
    ends."""
    scratch = tempfile.mkdtemp(prefix="wsrs-ab-")
    path = os.path.join(scratch, "base")
    try:
        _git(root, "worktree", "add", "--detach", path, commit)
        yield path
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", path],
                       cwd=root, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root,
                       capture_output=True)


def run_benchmark(tree: str, workload: str, seed: int, seconds: float,
                  side: str) -> Dict:
    """One ``perfbench/run.py`` run in ``tree``; its result line.

    The run gets a session of its own, so when it outlives
    :data:`RUN_BOUND_S` its whole process group is killed.
    """
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONPATH"}
    with subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds)],
            cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_BOUND_S)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ABError(f"perfbench {workload} seed {seed} ({side}) "
                          f"did not finish within {RUN_BOUND_S:g} s; "
                          f"killed its process group") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ABError(f"perfbench {workload} seed {seed} in {tree} exited "
                      f"with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ABError(f"perfbench {workload} seed {seed} in {tree}: "
                      f"unreadable result line ({exc})") from exc


def _failed_share(results: Sequence[Dict]) -> float:
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / max(1, attempted)


def run(base: str, seconds: Optional[float] = None) -> Dict:
    """A/B the working tree that holds the current directory against
    commit ``base``; returns the report :func:`format_report` prints.
    ``seconds`` defaults to ``BENCHMARK.json``'s ``run_seconds``."""
    root = _git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    if seconds is None:
        seconds = spec["run_seconds"]
    commit = _git(root, "rev-parse", "--verify", f"{base}^{{commit}}")
    workloads = [workload["name"] for workload in spec["workloads"]]
    runs: Dict[str, Dict[str, List[Dict]]] = {
        workload: {side: [] for side in SIDES} for workload in workloads}
    with base_worktree(root, commit) as base_tree:
        trees = {"base": base_tree, "change": root}
        for index in range(PAIRS):
            seed = SEED_BASE + index
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    start = time.perf_counter()
                    result = run_benchmark(trees[side], workload, seed,
                                           seconds, side)
                    runs[workload][side].append(result)
                    print(f"ab: pair {index + 1}/{PAIRS} {workload} "
                          f"seed {seed} {side:<6s} "
                          f"{time.perf_counter() - start:5.1f} s"
                          f"{'' if result['correct'] else '  NOT CORRECT'}",
                          file=sys.stderr, flush=True)

    report = {"base": commit, "seconds": seconds, "pairs": PAIRS,
              "workloads": {}, "ok": True}
    for workload in workloads:
        sides = runs[workload]
        correct = all(result["correct"]
                      for side in SIDES for result in sides[side])
        failed = {side: _failed_share(sides[side]) for side in SIDES}
        metrics = {
            metric["name"]: compare(
                [(base_run["metrics"][metric["name"]]["value"],
                  change_run["metrics"][metric["name"]]["value"])
                 for base_run, change_run in zip(sides["base"],
                                                 sides["change"])],
                metric["better"], metric["bound"])
            for metric in spec["end_to_end"]}
        report["workloads"][workload] = {
            "correct": correct, "failed_share": failed, "metrics": metrics}
        report["ok"] &= (correct and failed["change"] <= failed["base"]
                         and all(comparison.verdict != "regression"
                                 for comparison in metrics.values()))
    return report


def format_report(report: Dict) -> str:
    lines = [f"ab: {report['base'][:12]} (base) vs the working tree "
             f"(change), {report['pairs']} pairs of "
             f"{report['seconds']:g} s runs"]
    for workload, entry in report["workloads"].items():
        failed = entry["failed_share"]
        lines.append(
            f"{workload}: {'correct' if entry['correct'] else 'NOT CORRECT'}"
            f", failed share {failed['base']:.4f} -> "
            f"{failed['change']:.4f}")
        lines.append(f"  {'metric':<13s}{'base median [q1, q3]':>32s}"
                     f"{'change median [q1, q3]':>32s}  wins  verdict")
        for name, comparison in entry["metrics"].items():
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                     for q in (comparison.base, comparison.change)]
            lines.append(
                f"  {name:<13s}{cells[0]:>32s}{cells[1]:>32s}  "
                f"{comparison.wins:>2d}/{report['pairs']}  "
                f"{comparison.verdict}")
    lines.append("ab: " + ("pass" if report["ok"] else "FAIL"))
    return "\n".join(lines)

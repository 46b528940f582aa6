"""Performance trajectory tracking (``BENCH_history.jsonl``).

``BENCH_core.json`` is a snapshot: it shows how fast the core loop is
*now*, and is overwritten on every profile run.  This module keeps the
*trajectory*: every ``wsrs profile`` run appends one compact record -
git revision, date, and per-gear sim-KIPS for every configuration - to
an append-only JSONL file, so PR-over-PR performance wins (and losses)
stay visible in the repository history.

The file doubles as a regression gate.  ``check_regression`` compares a
fresh profile record against the last *comparable* committed record
(same benchmark, instruction counts and quick flag - KIPS from
different workloads are not comparable) and flags any configuration
whose specialized-gear KIPS dropped below ``tolerance`` times the
recorded value.  The tolerance is deliberately loose: wall-clock
throughput varies by tens of percent across machines and CI runners,
and the gate is there to catch structural regressions - a
despecialization, an accidental O(n^2) - not noise.
"""

from __future__ import annotations

import json
import subprocess
import time
from typing import Dict, List, Optional, Tuple

#: Schema version of one history line.
SCHEMA = 1

DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Default regression tolerance: fail when a configuration's
#: specialized-gear KIPS falls below this fraction of the last
#: committed record's value.
DEFAULT_TOLERANCE = 0.5

#: The per-cell keys copied from a profile record into a history line.
_GEAR_KEYS = ("reference_kips", "specialized_kips")


def git_revision(default: str = "unknown") -> str:
    """The current short git revision, or ``default`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return default
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else default


def history_record(record: Dict, sha: Optional[str] = None,
                   date: Optional[str] = None) -> Dict:
    """Compress a ``BENCH_core.json`` record into one history line."""
    return {
        "schema": SCHEMA,
        "kind": "profile",
        "sha": sha if sha is not None else git_revision(),
        "date": date if date is not None
        else time.strftime("%Y-%m-%d"),
        "benchmark": record["benchmark"],
        "measure": record["measure"],
        "warmup": record["warmup"],
        "quick": record["quick"],
        "identical": record["identical"],
        "cells": {
            cell["config"]: {key: cell[key] for key in _GEAR_KEYS}
            for cell in record["cells"]
        },
    }


def append_record(record: Dict, path: str = DEFAULT_HISTORY,
                  sha: Optional[str] = None,
                  date: Optional[str] = None) -> Dict:
    """Append one history line for a profile ``record``; returns it."""
    line = history_record(record, sha=sha, date=date)
    with open(path, "a") as handle:
        json.dump(line, handle, sort_keys=True)
        handle.write("\n")
    return line


def fleet_history_record(record: Dict, sha: Optional[str] = None,
                         date: Optional[str] = None) -> Dict:
    """Compress a ``BENCH_fleet.json`` record into one history line.

    Fleet lines carry ``kind: "fleet"`` so :func:`last_comparable` -
    which gates single-process profile runs - never mistakes a scaling
    record for a profile baseline.
    """
    return {
        "schema": SCHEMA,
        "kind": "fleet",
        "sha": sha if sha is not None else git_revision(),
        "date": date if date is not None
        else time.strftime("%Y-%m-%d"),
        "benchmark": record["benchmark"],
        "measure": record["measure"],
        "warmup": record["warmup"],
        "identical": record["identical"],
        "speedup": record["speedup"],
        "scaling": {
            str(point["workers"]): {
                "throughput_jobs_per_s": point["compute"]
                ["throughput_jobs_per_s"],
                "p95_ms": point["compute"]["latency_ms"]["p95"],
            }
            for point in record["scaling"]
        },
    }


def append_fleet_record(record: Dict, path: str = DEFAULT_HISTORY,
                        sha: Optional[str] = None,
                        date: Optional[str] = None) -> Dict:
    """Append one fleet scaling line to the history; returns it."""
    line = fleet_history_record(record, sha=sha, date=date)
    with open(path, "a") as handle:
        json.dump(line, handle, sort_keys=True)
        handle.write("\n")
    return line


def load_history(path: str = DEFAULT_HISTORY) -> List[Dict]:
    """Every history line, oldest first (empty when the file is absent)."""
    try:
        with open(path) as handle:
            return [json.loads(line) for line in handle
                    if line.strip()]
    except FileNotFoundError:
        return []


def last_comparable(history: List[Dict], record: Dict) -> Optional[Dict]:
    """The newest history line measured under the same conditions."""
    for line in reversed(history):
        if (line.get("kind", "profile") == "profile"
                and line.get("benchmark") == record["benchmark"]
                and line.get("measure") == record["measure"]
                and line.get("warmup") == record["warmup"]
                and line.get("quick") == record["quick"]):
            return line
    return None


def check_regression(
    record: Dict,
    path: str = DEFAULT_HISTORY,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[bool, List[str]]:
    """Gate a fresh profile ``record`` against the committed history.

    Returns ``(ok, messages)``.  ``ok`` is True when no comparable
    record exists (nothing to gate against) or every configuration's
    specialized-gear KIPS is at least ``tolerance`` times the last
    committed value.  ``messages`` explains every failing cell.
    """
    baseline = last_comparable(load_history(path), record)
    if baseline is None:
        return True, [f"no comparable record in {path}; nothing to gate"]
    messages: List[str] = []
    for cell in record["cells"]:
        before = baseline["cells"].get(cell["config"])
        if before is None:
            continue
        floor = before["specialized_kips"] * tolerance
        now = cell["specialized_kips"]
        if now < floor:
            messages.append(
                f"{cell['config']}: specialized gear at {now:.1f} KIPS, "
                f"below {tolerance:.0%} of the committed "
                f"{before['specialized_kips']:.1f} KIPS "
                f"(sha {baseline.get('sha', '?')})")
    return not messages, messages

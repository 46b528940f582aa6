"""Replay and summarise a structured pipeline trace.

Reads the JSONL stream of :mod:`repro.obs.tracer` (plain or gzipped),
validates the schema version, and answers the post-hoc questions an
aggregate statistics bundle cannot: how long did dispatched micro-ops
wait to issue inside the sampled window, which clusters did the work,
what did the specialized gear's event-horizon jumps skip.

The analyzer is a single pass over the stream - a trace never needs to
fit in memory beyond the in-flight join of dispatch/issue/commit events
by sequence number.

Library use::

    from repro.obs.analyzer import summarize, format_summary
    print(format_summary(summarize("run.jsonl.gz")))

or ``wsrs trace --analyze run.jsonl.gz`` from the command line.
"""

from __future__ import annotations

import gzip
import json
from typing import Dict, Iterator

from repro.obs.tracer import SCHEMA_VERSION, TraceSchemaError


def read_events(path: str) -> Iterator[dict]:
    """Yield every event of a trace file (gzip-aware), header included."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def validate_header(header: dict) -> dict:
    if header.get("t") != "H":
        raise TraceSchemaError(
            f"trace does not start with a header record, got {header!r}")
    version = header.get("v")
    if version != SCHEMA_VERSION:
        raise TraceSchemaError(
            f"unsupported trace schema version {version!r} "
            f"(this analyzer reads version {SCHEMA_VERSION})")
    return header


def summarize(path: str) -> Dict[str, object]:
    """One-pass summary of a trace file.

    Returns plain data: the header, per-event-type counts, the per-class
    and per-cluster dispatch mix, mean dispatch->issue and issue->commit
    waits over micro-ops fully contained in the sampled window, and the
    jump records' coverage.
    """
    events = read_events(path)
    try:
        header = validate_header(next(events))
    except StopIteration:
        raise TraceSchemaError(f"{path}: empty trace") from None

    counts = {"D": 0, "I": 0, "R": 0, "J": 0}
    op_mix: Dict[str, int] = {}
    cluster_dispatch = [0] * header["clusters"]
    dispatch_cycle: Dict[int, int] = {}
    issue_cycle: Dict[int, int] = {}
    issue_wait_sum = issue_wait_n = 0
    commit_wait_sum = commit_wait_n = 0
    skipped_cycles = 0
    trailer: Dict[str, object] = {}
    for event in events:
        tag = event["t"]
        if tag == "E":
            trailer = event
            continue
        counts[tag] += 1
        if tag == "D":
            seq = event["q"]
            dispatch_cycle[seq] = event["c"]
            op_mix[event["op"]] = op_mix.get(event["op"], 0) + 1
            cluster_dispatch[event["cl"]] += 1
        elif tag == "I":
            seq = event["q"]
            issue_cycle[seq] = event["c"]
            dispatched = dispatch_cycle.get(seq)
            if dispatched is not None:
                issue_wait_sum += event["c"] - dispatched
                issue_wait_n += 1
        elif tag == "R":
            seq = event["q"]
            issued = issue_cycle.pop(seq, None)
            dispatch_cycle.pop(seq, None)
            if issued is not None:
                commit_wait_sum += event["c"] - issued
                commit_wait_n += 1
        elif tag == "J":
            skipped_cycles += event["to"] - event["c"]
    return {
        "path": path,
        "header": header,
        "events": counts,
        "op_mix": {name: op_mix[name] for name in sorted(op_mix)},
        "cluster_dispatch": cluster_dispatch,
        "mean_issue_wait": (issue_wait_sum / issue_wait_n
                            if issue_wait_n else 0.0),
        "mean_commit_wait": (commit_wait_sum / commit_wait_n
                             if commit_wait_n else 0.0),
        "jump_skipped_cycles": skipped_cycles,
        "trailer": trailer,
    }


def format_summary(summary: Dict[str, object]) -> str:
    header = summary["header"]
    counts = summary["events"]
    lines = [
        f"trace            {summary['path']}",
        f"configuration    {header['config']} "
        f"({header['clusters']} clusters)",
        f"sampling         start={header['start']} "
        f"window={header['window']} every={header['every']}",
        f"events           dispatch={counts['D']} issue={counts['I']} "
        f"commit={counts['R']} jumps={counts['J']}",
        f"op mix           " + " ".join(
            f"{name}={count}"
            for name, count in summary["op_mix"].items()),
        f"cluster shares   "
        + "/".join(str(n) for n in summary["cluster_dispatch"]),
        f"mean waits       dispatch->issue "
        f"{summary['mean_issue_wait']:.2f} cycles, issue->commit "
        f"{summary['mean_commit_wait']:.2f} cycles",
        f"jumped cycles    {summary['jump_skipped_cycles']}",
    ]
    trailer = summary["trailer"]
    if trailer:
        lines.append(f"run totals       cycles={trailer.get('cycles')} "
                     f"committed={trailer.get('committed')}")
    return "\n".join(lines)

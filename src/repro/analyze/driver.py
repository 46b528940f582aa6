"""The ``wsrs analyze`` driver: run passes, diff the baseline, render.

One function, :func:`run_analysis`, backs the ``wsrs analyze`` command;
``--pass NAME`` (repeatable) selects passes, the default runs them all.

Exit code contract: 0 when every gating finding (severity ``error`` or
``warning``) is covered by the committed baseline, 1 otherwise.
``note`` findings never gate.  ``--write-baseline`` accepts the current
findings as the new baseline and exits 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analyze.baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    partition,
    write_baseline,
)
from repro.analyze.framework import (
    AnalysisContext,
    Finding,
    all_passes,
    get_pass,
    load_passes,
    run_passes,
)
from repro.analyze.sarif import to_sarif


def run_analysis(passes: Optional[Sequence[str]] = None,
                 paths: Sequence[str] = (),
                 root: str = ".",
                 fmt: str = "text",
                 out: Optional[str] = None,
                 baseline: Optional[str] = None,
                 use_baseline: bool = True,
                 update_baseline: bool = False,
                 sample_configs: int = 50,
                 list_passes: bool = False) -> int:
    """Run the analyzer and print/return per the CLI contract."""
    load_passes()
    if list_passes:
        for entry in all_passes():
            print(f"{entry.name:14s} {entry.title}")
            for rule in sorted(entry.rules):
                print(f"    {rule:24s} {entry.rules[rule]}")
        return 0

    root_path = Path(root).resolve()
    try:
        selected = [get_pass(name) for name in passes] if passes \
            else all_passes()
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    context = AnalysisContext(
        root=root_path,
        paths=tuple(Path(p) for p in paths),
        sample_configs=sample_configs)
    findings = run_passes([entry.name for entry in selected], context)

    baseline_path = Path(baseline) if baseline \
        else root_path / DEFAULT_BASELINE_NAME
    if update_baseline:
        count = write_baseline(baseline_path, findings)
        print(f"analyze: wrote {count} finding(s) to {baseline_path}")
        return 0
    known = {}
    if use_baseline:
        try:
            known = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"analyze: {exc}", file=sys.stderr)
            return 2
    novel, baselined = partition(findings, known)
    gating = [finding for finding in novel if finding.gates]

    rendering = _render(fmt, novel, baselined, selected)
    if out:
        Path(out).write_text(rendering + "\n", encoding="utf-8")
        print(f"analyze: wrote {fmt} report to {out}")
        if gating:
            print(f"analyze: {len(gating)} gating finding(s)")
        else:
            print(f"analyze: clean")
    else:
        print(rendering)
    return 1 if gating else 0


def _render(fmt: str, novel: List[Finding],
            baselined: List[Finding], selected) -> str:
    if fmt == "sarif":
        return json.dumps(to_sarif(novel, selected, baselined), indent=2)
    if fmt == "json":
        return json.dumps({
            "tool": "wsrs-analyze",
            "passes": [entry.name for entry in selected],
            "findings": [finding.to_json() for finding in novel],
            "baselined": [finding.to_json() for finding in baselined],
            "counts": {"novel": len(novel), "baselined": len(baselined)},
        }, indent=2)
    lines: List[str] = []
    for finding in novel:
        lines.append(str(finding))
    if baselined:
        lines.append(f"analyze: {len(baselined)} baselined finding(s) "
                     f"suppressed")
    if novel:
        lines.append(f"{len(novel)} finding(s)")
    else:
        lines.append(f"analyze: clean")
    return "\n".join(lines)

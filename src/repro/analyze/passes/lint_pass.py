"""The determinism/API lint (:mod:`repro.verify.lint`) as a pass.

``wsrs analyze --pass lint`` runs it; the rules and the AST machinery
live in :mod:`repro.verify.lint`, this module only adapts them to the
framework's finding shape and default target set (the ``repro``
package plus ``examples/`` and ``benchmarks/``).
"""

from __future__ import annotations

from typing import List

from repro.analyze.framework import AnalysisContext, Finding, analysis_pass
from repro.verify.lint import default_lint_targets, lint_paths

RULES = {
    "LINT-RANDOM": "call through the module-level random.* API (shared "
                   "unseeded global state)",
    "LINT-SET-ITER": "iteration over a set is hash-order dependent; a "
                     "cross-process determinism hazard",
    "LINT-PRIVATE-POKE": "direct access to renaming internals from "
                         "outside the rename package",
    "LINT-MUTABLE-DEFAULT": "mutable default argument",
}


@analysis_pass("lint", "determinism/API lint over the simulator sources",
               rules=RULES)
def run_lint(context: AnalysisContext) -> List[Finding]:
    targets = context.python_targets() or default_lint_targets(context.root)
    return [
        Finding(pass_name="lint", rule=finding.rule,
                path=context.relpath(finding.path), line=finding.line,
                message=finding.message, severity="warning")
        for finding in lint_paths(targets)
    ]

"""Documentation freshness (:mod:`repro.verify.docscheck`) as a pass.

``wsrs analyze --pass docscheck`` runs it.  The checker's kinds map
onto stable rule ids so findings can be baselined and suppressed like
any other pass's.
"""

from __future__ import annotations

from typing import List

from repro.analyze.framework import AnalysisContext, Finding, analysis_pass
from repro.verify.docscheck import check_paths, check_tree

RULES = {
    "DOC-LINK": "relative markdown link target does not exist",
    "DOC-ANCHOR": "markdown anchor has no matching heading",
    "DOC-COMMAND": "documented wsrs command no longer parses",
    "DOC-CLI-COVERAGE": "CLI subcommand mentioned nowhere in the docs",
}


@analysis_pass("docscheck",
               "docs link/anchor freshness + CLI command replay",
               rules=RULES)
def run_docscheck(context: AnalysisContext) -> List[Finding]:
    targets = context.markdown_targets()
    if targets:
        doc_findings = check_paths(targets, context.root)
    else:
        doc_findings = check_tree(context.root)
    return [
        Finding(pass_name="docscheck",
                rule=f"DOC-{finding.kind.upper()}",
                path=context.relpath(finding.path), line=finding.line,
                message=f"[{finding.kind}] {finding.message}",
                severity="warning")
        for finding in doc_findings
    ]

"""The static WS/RS invariant rules (:mod:`repro.verify.rules`) as a pass.

Runs every shipped configuration (the section-5 set plus the noWS-2
reference machine and the 7-cluster extension) through the config rule
registry as ``wsrs analyze --pass config-rules``, so a rule violation
in a shipped configuration fails the ``analyze`` CI job too.
"""

from __future__ import annotations

from typing import List

from repro.analyze.framework import AnalysisContext, Finding, analysis_pass
from repro.verify.rules import all_rules, check_config

RULES = {rule.rule_id: rule.title for rule in all_rules()}


@analysis_pass("config-rules",
               "static WS/RS invariant rules on every shipped config",
               rules=RULES)
def run_config_rules(context: AnalysisContext) -> List[Finding]:
    from repro.config import (
        figure4_configs,
        two_cluster_4way,
        wsrs_seven_cluster,
    )

    configs = list(figure4_configs())
    configs.append(two_cluster_4way())
    configs.append(wsrs_seven_cluster())
    findings: List[Finding] = []
    for config in configs:
        for violation in check_config(config):
            findings.append(Finding(
                pass_name="config-rules", rule=violation.rule,
                path="src/repro/config.py", line=1,
                message=f"{config.name}: {violation.message}",
                severity="error", config=config.name))
    return findings

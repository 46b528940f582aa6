"""Verification layer: machine-checked WS/RS invariants.

Three analysis passes guard the structural claims of the paper:

* :mod:`repro.verify.rules` - whole-``MachineConfig`` static rules
  (write-map partition, Figure 3 read connectivity, port-count
  arithmetic, provable deadlock freedom);
* :mod:`repro.verify.sanitizer` - the opt-in cycle-level pipeline
  sanitizer (``Processor(sanitize=True)``, ``--sanitize``,
  ``WSRS_SANITIZE``);
* :mod:`repro.verify.lint` - the ``wsrs analyze --pass lint``
  determinism and API lint over the simulator sources.
"""

from repro.verify.lint import LintFinding, lint_file, lint_paths
from repro.verify.rules import (
    Rule,
    RuleViolation,
    all_rules,
    check_config,
    verify_config,
)
from repro.verify.sanitizer import (
    SANITIZE_ENV_VAR,
    PipelineSanitizer,
    SanitizerViolation,
    sanitize_from_env,
)

__all__ = [
    "LintFinding",
    "lint_file",
    "lint_paths",
    "Rule",
    "RuleViolation",
    "all_rules",
    "check_config",
    "verify_config",
    "SANITIZE_ENV_VAR",
    "PipelineSanitizer",
    "SanitizerViolation",
    "sanitize_from_env",
]

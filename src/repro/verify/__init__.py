"""Verification layer: machine-checked WS/RS invariants.

Two checkers guard the structural claims of the paper at run time (the
explorer's lattice runs the rules, the processor the sanitizer):

* :mod:`repro.verify.rules` - whole-``MachineConfig`` static rules
  (write-map partition, Figure 3 read connectivity, port-count
  arithmetic, provable deadlock freedom), also run over every shipped
  configuration by ``wsrs analyze --pass config-rules``;
* :mod:`repro.verify.sanitizer` - the opt-in cycle-level pipeline
  sanitizer (``Processor(sanitize=True)``, ``--sanitize``,
  ``WSRS_SANITIZE``).

The source lint lives with the other static checks in
:mod:`repro.analyze.passes.lint_pass`.
"""

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

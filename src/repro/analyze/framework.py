"""Pluggable static-analysis framework: passes, findings, suppression.

The analyzer (``wsrs analyze``) is a registry of *passes*.  Each pass is
a plain function taking an :class:`AnalysisContext` and returning a list
of :class:`Finding` objects; the :func:`analysis_pass` decorator
registers it under a stable name together with its rule catalogue (the
rule metadata feeds the SARIF output).  The passes are the modules of
:mod:`repro.analyze.passes`; importing that package registers them.

Findings carry a severity: ``error`` and ``warning`` gate the run (CI
fails on any such finding not in the committed baseline, see
:mod:`repro.analyze.baseline`); ``note`` is informational.  A finding on
a real source line can be silenced in place with a suppression comment::

    for key in hazard_set:  # wsrs: ignore[LINT-SET-ITER]

``# wsrs: ignore`` without a rule list suppresses every rule on that
line.  Suppressions only apply to findings whose path is a readable
file - findings against generated pseudo-files (the specialized
stepper's ``<specialized:...>`` sources) cannot be suppressed in place
and must go through the baseline instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Finding severities, most severe first.  ``note`` never gates.
SEVERITIES = ("error", "warning", "note")

_SUPPRESS_RE = re.compile(
    r"#\s*wsrs:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_, -]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One analysis result: a rule violated at a source location."""

    pass_name: str
    rule: str
    path: str
    line: int
    message: str
    severity: str = "warning"
    #: Machine-configuration provenance (SPEC-EQUIV findings name the
    #: config whose generated stepper diverged).
    config: Optional[str] = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; "
                f"choose from {SEVERITIES}")

    def __str__(self) -> str:
        provenance = f" [config: {self.config}]" if self.config else ""
        return (f"{self.path}:{self.line}: {self.rule}: "
                f"{self.message}{provenance}")

    @property
    def gates(self) -> bool:
        """Whether this finding fails the run (notes are informational)."""
        return self.severity in ("error", "warning")

    def to_json(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "pass": self.pass_name, "rule": self.rule, "path": self.path,
            "line": self.line, "message": self.message,
            "severity": self.severity,
        }
        if self.config is not None:
            record["config"] = self.config
        return record


@dataclass(frozen=True)
class AnalysisContext:
    """What a pass may look at, and how hard it should look.

    ``paths`` are explicit targets from the command line; every pass
    filters out the entries it understands (Python files/directories for
    the source passes, markdown files for docscheck) and falls back to
    its default target set when none remain.  ``sample_configs`` bounds
    the SPEC-EQUIV sweep of the configuration space.
    """

    root: Path
    paths: Tuple[Path, ...] = ()
    sample_configs: int = 50
    sample_seed: int = 20_020

    def python_targets(self) -> List[Path]:
        """Explicit targets for source passes (dirs + .py files)."""
        return [path for path in self.paths
                if path.is_dir() or path.suffix == ".py"]

    def markdown_targets(self) -> List[Path]:
        """Explicit targets for documentation passes."""
        return [path for path in self.paths if path.suffix == ".md"]

    def relpath(self, path) -> str:
        """``path`` relative to the analysis root when possible."""
        try:
            return Path(path).resolve().relative_to(
                self.root.resolve()).as_posix()
        except ValueError:
            return str(path)


@dataclass(frozen=True)
class AnalysisPass:
    """A registered pass: metadata plus the function that runs it."""

    name: str
    title: str
    run: Callable[[AnalysisContext], List[Finding]]
    #: rule id -> one-line description (feeds the SARIF rule catalogue).
    rules: Dict[str, str] = field(default_factory=dict)


_REGISTRY: Dict[str, AnalysisPass] = {}


def analysis_pass(name: str, title: str,
                  rules: Optional[Dict[str, str]] = None):
    """Decorator registering ``func`` as the analysis pass ``name``."""

    def register(func: Callable[[AnalysisContext], List[Finding]]):
        if name in _REGISTRY:
            raise ValueError(f"analysis pass {name!r} already registered")
        _REGISTRY[name] = AnalysisPass(
            name=name, title=title, run=func, rules=dict(rules or {}))
        return func

    return register


def load_passes() -> None:
    """Import the built-in passes (registration runs on first import)."""
    import repro.analyze.passes  # noqa: F401


def all_passes() -> List[AnalysisPass]:
    """Every registered pass, name-ordered."""
    load_passes()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_pass(name: str) -> AnalysisPass:
    load_passes()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown analysis pass {name!r}; choose from {known}") \
            from None


def run_passes(names: Optional[Sequence[str]],
               context: AnalysisContext) -> List[Finding]:
    """Run the named passes (default: all), suppression-filtered."""
    selected = ([get_pass(name) for name in names] if names
                else all_passes())
    findings: List[Finding] = []
    for entry in selected:
        findings.extend(entry.run(context))
    findings = filter_suppressed(findings, context.root)
    findings.sort(key=lambda finding: (finding.path, finding.line,
                                       finding.pass_name, finding.rule,
                                       finding.message))
    return findings


def filter_suppressed(findings: Sequence[Finding],
                      root: Path) -> List[Finding]:
    """Drop findings whose source line carries a suppression comment."""
    cache: Dict[Path, Optional[List[str]]] = {}
    kept: List[Finding] = []
    for finding in findings:
        if not _suppressed(finding, root, cache):
            kept.append(finding)
    return kept


def _suppressed(finding: Finding, root: Path,
                cache: Dict[Path, Optional[List[str]]]) -> bool:
    path = Path(finding.path)
    if not path.is_absolute():
        path = root / path
    lines = cache.get(path)
    if path not in cache:
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            lines = None
        cache[path] = lines
    if lines is None or not 1 <= finding.line <= len(lines):
        return False
    match = _SUPPRESS_RE.search(lines[finding.line - 1])
    if match is None:
        return False
    rules = match.group("rules")
    if rules is None:
        return True
    return finding.rule in {rule.strip() for rule in rules.split(",")}

"""Determinism and API lint for the simulator sources.

``wsrs analyze --pass lint`` runs this static AST pass over the
``repro`` package plus ``examples/`` and ``benchmarks/``.  It flags the
coding hazards most likely to silently corrupt reproducibility or the
WS/RS invariants (:data:`RULES`):

=======================  ==================================================
``LINT-RANDOM``          a call through the module-level ``random.*`` API
                         (shared, unseeded global state); policies must
                         thread an explicit per-instance
                         ``random.Random(seed)`` as
                         :mod:`repro.allocation.policies` does
``LINT-SET-ITER``        iteration over a ``set``/``frozenset`` in the
                         ``core``/``rename`` packages - set order is
                         hash-dependent across processes, an ordering
                         hazard for the parallel-vs-serial parity the
                         experiment engine guarantees (wrap in
                         ``sorted(...)`` instead)
``LINT-PRIVATE-POKE``    access to an underscore attribute of the
                         renamer's internals (``map_table``,
                         ``int_class``/``fp_class``, ``free_lists``,
                         ``renamer``) or an import of ``_RegisterClass``
                         from outside the ``rename`` package
``LINT-MUTABLE-DEFAULT``  a mutable default argument (list/dict/set
                         literal or constructor call)
=======================  ==================================================

The pass is deliberately conservative: set-typed names are inferred only
from direct assignments/annotations inside the same file, so a clean run
is meaningful while false positives stay rare.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Set, Union

from repro.analyze.framework import AnalysisContext, Finding, analysis_pass

RULES = {
    "LINT-RANDOM": "call through the module-level random.* API (shared "
                   "unseeded global state)",
    "LINT-SET-ITER": "iteration over a set is hash-order dependent; a "
                     "cross-process determinism hazard",
    "LINT-PRIVATE-POKE": "direct access to renaming internals from "
                         "outside the rename package",
    "LINT-MUTABLE-DEFAULT": "mutable default argument",
}

#: Directories (package names) whose files the set-iteration rule covers.
#: ``allocation`` and ``frontend`` share the hash-order hazard: their
#: decisions feed the allocation stream, so set-order dependence there
#: breaks the parallel-vs-serial parity just like in core/rename.
SET_ITER_SCOPES = ("core", "rename", "allocation", "frontend")

#: Package whose files may touch the renaming internals.
PRIVATE_POKE_EXEMPT = "rename"

#: Identifiers whose underscore attributes count as renaming internals.
_RENAME_OBJECTS = frozenset(
    {"map_table", "int_class", "fp_class", "free_lists", "renamer"})

_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set"})


def _is_set_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in ("Set", "FrozenSet")
    return False


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _target_key(node: ast.expr) -> str:
    """A stable key for a Name or ``self.attr`` assignment target."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return ""


class _FileLinter(ast.NodeVisitor):
    """Single-file AST pass collecting findings for every rule."""

    def __init__(self, path: str, check_set_iteration: bool,
                 check_private_pokes: bool) -> None:
        self.path = path
        self.check_set_iteration = check_set_iteration
        self.check_private_pokes = check_private_pokes
        self.findings: List[Finding] = []
        self._set_names: Set[str] = set()

    # -- shared plumbing -------------------------------------------------

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(
            pass_name="lint", rule=rule, path=self.path, line=node.lineno,
            message=message, severity="warning"))

    def collect_set_names(self, tree: ast.Module) -> None:
        """First pass: names/attributes bound to set displays."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_set_expression(
                    node.value):
                for target in node.targets:
                    key = _target_key(target)
                    if key:
                        self._set_names.add(key)
            elif isinstance(node, ast.AnnAssign):
                if _is_set_annotation(node.annotation) or (
                        node.value is not None
                        and _is_set_expression(node.value)):
                    key = _target_key(node.target)
                    if key:
                        self._set_names.add(key)

    def _is_set_valued(self, node: ast.expr) -> bool:
        if _is_set_expression(node):
            return True
        return _target_key(node) in self._set_names

    # -- LINT-RANDOM -----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and func.attr not in ("Random", "SystemRandom")):
            self._flag(
                node, "LINT-RANDOM",
                f"module-level random.{func.attr}() shares unseeded "
                f"global state; use a per-instance random.Random(seed)")
        self.generic_visit(node)

    # -- LINT-SET-ITER ---------------------------------------------------

    def _check_iterable(self, node: ast.expr) -> None:
        if self.check_set_iteration and self._is_set_valued(node):
            self._flag(
                node, "LINT-SET-ITER",
                "iteration over a set is hash-order dependent; iterate "
                "sorted(...) for cross-process determinism")

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_node(self, node: Union[
            ast.ListComp, ast.SetComp, ast.DictComp,
            ast.GeneratorExp]) -> None:
        for generator in node.generators:
            self._check_iterable(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_node
    visit_SetComp = _visit_comprehension_node
    visit_DictComp = _visit_comprehension_node
    visit_GeneratorExp = _visit_comprehension_node

    # -- LINT-PRIVATE-POKE -----------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (self.check_private_pokes
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and _target_key(node.value).split(".")[-1]
                in _RENAME_OBJECTS):
            self._flag(
                node, "LINT-PRIVATE-POKE",
                f"direct access to renaming internal "
                f"'.{node.attr}' from outside rename/; use the public "
                f"introspection API")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.check_private_pokes and node.module \
                and node.module.startswith("repro.rename"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    self._flag(
                        node, "LINT-PRIVATE-POKE",
                        f"import of private renaming class "
                        f"'{alias.name}' outside rename/")
        self.generic_visit(node)

    # -- LINT-MUTABLE-DEFAULT --------------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults
            if default is not None]
        for default in defaults:
            mutable = isinstance(default,
                                 (ast.List, ast.Dict, ast.Set,
                                  ast.ListComp, ast.SetComp, ast.DictComp))
            if (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CONSTRUCTORS):
                mutable = True
            if mutable:
                self._flag(
                    default, "LINT-MUTABLE-DEFAULT",
                    f"mutable default argument in {node.name}(); default "
                    f"to None and create the container in the body")
        self.generic_visit(node)

    visit_FunctionDef = _check_defaults
    visit_AsyncFunctionDef = _check_defaults


def _scoped(path: Path, scopes: Iterable[str]) -> bool:
    return any(scope in path.parts for scope in scopes)


def lint_file(path: Path, context: AnalysisContext) -> List[Finding]:
    """Lint one Python source file."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    linter = _FileLinter(
        context.relpath(path),
        check_set_iteration=_scoped(path, SET_ITER_SCOPES),
        check_private_pokes=not _scoped(path, (PRIVATE_POKE_EXEMPT,)),
    )
    linter.collect_set_names(tree)
    linter.visit(tree)
    return linter.findings


def default_lint_target() -> Path:
    """The installed ``repro`` package directory (what CI lints)."""
    import repro

    return Path(repro.__file__).resolve().parent


def default_lint_targets(root: Union[str, Path, None] = None) -> List[Path]:
    """The full default target set: the ``repro`` package plus the
    repository's ``examples/`` and ``benchmarks/`` Python sources.

    ``root`` is the repository root; when omitted it is derived from the
    package location (``src/repro`` -> two levels up).  The extra
    directories are skipped when absent (e.g. a site-packages install).
    """
    package = default_lint_target()
    if root is None:
        root = package.parent.parent
    root = Path(root)
    targets = [package]
    for extra in ("examples", "benchmarks"):
        candidate = root / extra
        if candidate.is_dir():
            targets.append(candidate)
    return targets


@analysis_pass("lint", "determinism/API lint over the simulator sources",
               rules=RULES)
def run_lint(context: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    for entry in (context.python_targets()
                  or default_lint_targets(context.root)):
        sources = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for source in sources:
            findings.extend(lint_file(source, context))
    return findings

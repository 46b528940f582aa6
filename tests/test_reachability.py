"""Every module of the package is reachable from a shipped entry point.

Walks the static import graph (``import`` and ``from ... import``
statements anywhere in a module, function bodies included) from the
CLI, ``python -m repro`` and the report generator.  A module that only
tests or examples import fails here: delete it, or wire it into a
command.
"""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "repro"
ROOTS = ("repro.cli", "repro.__main__", "repro.experiments.report")


def _modules():
    """Module name -> source file, for every module under src/repro."""
    modules = {}
    for path in PACKAGE_DIR.rglob("*.py"):
        parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(path, modules):
    """Names of the in-package modules ``path`` imports, with the
    packages each import executes on the way."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            found.update(".".join(parts[:end])
                         for end in range(1, len(parts) + 1))
    return found & set(modules)


def test_every_module_is_reachable_from_an_entry_point():
    modules = _modules()
    reached = set()
    pending = list(ROOTS)
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        pending.extend(_imports(modules[name], modules) - reached)
    assert sorted(set(modules) - reached) == []

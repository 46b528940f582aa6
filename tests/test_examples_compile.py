"""Sanity checks on the example scripts.

The examples run full simulations (seconds to minutes each), so the
test suite only verifies they parse, carry a main() entry point and
reference real library symbols - the cheap failures that bit-rot
produces.  `pytest benchmarks/` and the CLI cover the underlying
functionality.
"""

import ast
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_the_expected_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert {"quickstart.py", "microbenchmarks.py", "custom_workload.py",
            "complexity_explorer.py", "deadlock_workarounds.py",
            "pipeline_visualizer.py", "seven_clusters.py"} <= names


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_parses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert ast.get_docstring(tree), f"{path.name} lacks a docstring"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_has_main_guard(path):
    source = path.read_text()
    assert "def main()" in source
    assert '__name__ == "__main__"' in source


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Import every module an example depends on (without running it)."""
    import importlib

    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{path.name}: {node.module}.{alias.name} missing"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    importlib.import_module(alias.name)

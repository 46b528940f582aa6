"""The determinism/API lint pass (repro.analyze.passes.lint_pass)."""

import textwrap
from pathlib import Path

import pytest

from repro.analyze.framework import AnalysisContext, Finding, run_passes
from repro.analyze.passes.lint_pass import (
    default_lint_target,
    default_lint_targets,
    run_lint,
)


def _lint(root, *paths):
    return run_passes(["lint"], AnalysisContext(root=root, paths=paths))


def _lint_source(tmp_path, source, name="sample.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return _lint(tmp_path, path)


def _rules(findings):
    return [finding.rule for finding in findings]


class TestLintRandom:
    def test_module_level_random_call_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, """
            import random

            def pick():
                return random.randrange(4)
        """)
        assert findings == [Finding(
            pass_name="lint", rule="LINT-RANDOM", path="sample.py", line=5,
            message="module-level random.randrange() shares unseeded "
                    "global state; use a per-instance random.Random(seed)")]

    def test_seeded_instance_is_clean(self, tmp_path):
        findings = _lint_source(tmp_path, """
            import random

            class Policy:
                def __init__(self, seed):
                    self.rng = random.Random(seed)

                def pick(self):
                    return self.rng.randrange(4)
        """)
        assert findings == []

    def test_system_random_is_clean(self, tmp_path):
        findings = _lint_source(tmp_path, """
            import random
            gen = random.SystemRandom()
        """)
        assert findings == []


class TestLintSetIteration:
    def test_scoped_to_determinism_packages(self, tmp_path):
        source = """
            ready = {1, 2, 3}
            for uop in ready:
                pass
        """
        # allocation/frontend feed the allocation stream, so they share
        # core/rename's hash-order hazard and the rule's scope.
        for scope in ("core", "rename", "allocation", "frontend"):
            scoped_dir = tmp_path / scope
            scoped_dir.mkdir()
            findings = _lint_source(scoped_dir, source)
            assert _rules(findings) == ["LINT-SET-ITER"]
        # Outside the hot determinism scopes the rule stays silent.
        assert _lint_source(tmp_path, source) == []

    def test_set_display_and_comprehension_iteration(self, tmp_path):
        scoped = tmp_path / "core"
        scoped.mkdir()
        findings = _lint_source(scoped, """
            values = [x for x in {3, 1, 2}]
        """)
        assert _rules(findings) == ["LINT-SET-ITER"]

    def test_annotated_set_name_tracked(self, tmp_path):
        scoped = tmp_path / "core"
        scoped.mkdir()
        findings = _lint_source(scoped, """
            from typing import Set

            pending: Set[int] = set()
            for entry in pending:
                pass
        """)
        assert _rules(findings) == ["LINT-SET-ITER"]

    def test_sorted_iteration_is_clean(self, tmp_path):
        scoped = tmp_path / "core"
        scoped.mkdir()
        findings = _lint_source(scoped, """
            pending = {3, 1, 2}
            for entry in sorted(pending):
                pass
        """)
        assert findings == []


class TestLintPrivatePoke:
    def test_underscore_attribute_of_rename_object(self, tmp_path):
        findings = _lint_source(tmp_path, """
            def peek(renamer):
                return renamer._staging
        """)
        assert _rules(findings) == ["LINT-PRIVATE-POKE"]

    def test_self_map_table_poke(self, tmp_path):
        findings = _lint_source(tmp_path, """
            class Checker:
                def snoop(self):
                    return self.map_table._entries
        """)
        # `self.map_table` has terminal key part `map_table`.
        assert "LINT-PRIVATE-POKE" in _rules(findings)

    def test_private_import_from_rename(self, tmp_path):
        findings = _lint_source(tmp_path, """
            from repro.rename.registerclass import _RegisterClass
        """)
        assert _rules(findings) == ["LINT-PRIVATE-POKE"]

    def test_rename_package_is_exempt(self, tmp_path):
        scoped = tmp_path / "rename"
        scoped.mkdir()
        findings = _lint_source(scoped, """
            def peek(renamer):
                return renamer._staging
        """)
        assert findings == []

    def test_public_api_is_clean(self, tmp_path):
        findings = _lint_source(tmp_path, """
            def peek(renamer):
                return renamer.free_registers(0)
        """)
        assert findings == []


class TestLintMutableDefault:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "list()",
                                         "dict(a=1)"])
    def test_mutable_defaults_flagged(self, tmp_path, default):
        findings = _lint_source(tmp_path, f"""
            def f(x={default}):
                return x
        """)
        assert _rules(findings) == ["LINT-MUTABLE-DEFAULT"]
        assert "f()" in findings[0].message

    def test_keyword_only_default_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, """
            def f(*, cache=[]):
                return cache
        """)
        assert _rules(findings) == ["LINT-MUTABLE-DEFAULT"]

    def test_none_default_is_clean(self, tmp_path):
        findings = _lint_source(tmp_path, """
            def f(x=None, y=0, z=(1, 2)):
                return x, y, z
        """)
        assert findings == []


class TestLintPaths:
    def test_directory_walk_sorted_output(self, tmp_path):
        (tmp_path / "b.py").write_text("import random\nrandom.random()\n",
                                       encoding="utf-8")
        (tmp_path / "a.py").write_text("def f(x=[]):\n    return x\n",
                                       encoding="utf-8")
        findings = _lint(tmp_path, tmp_path)
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("LINT-MUTABLE-DEFAULT", "a.py", 1), ("LINT-RANDOM", "b.py", 2)]

    def test_finding_str_is_greppable(self, tmp_path):
        (tmp_path / "x.py").write_text("def f(x=[]):\n    return x\n",
                                       encoding="utf-8")
        [finding] = _lint(tmp_path, tmp_path / "x.py")
        assert str(finding) == (
            "x.py:1: LINT-MUTABLE-DEFAULT: mutable default argument in "
            "f(); default to None and create the container in the body")


class TestDefaultTargets:
    def test_includes_examples_and_benchmarks(self, tmp_path):
        (tmp_path / "examples").mkdir()
        (tmp_path / "benchmarks").mkdir()
        targets = default_lint_targets(tmp_path)
        assert targets[0] == default_lint_target()
        assert [t.name for t in targets[1:]] == ["examples",
                                                 "benchmarks"]

    def test_missing_extras_are_skipped(self, tmp_path):
        assert default_lint_targets(tmp_path) == [default_lint_target()]

    def test_repo_root_derived_from_package(self):
        targets = default_lint_targets()
        assert [t.name for t in targets] == ["repro", "examples",
                                             "benchmarks"]


class TestRepositoryIsClean:
    def test_simulator_sources_lint_clean(self):
        # The pass itself, not run_passes: no suppression comment may
        # hide a finding here.
        findings = run_lint(AnalysisContext(
            root=Path(__file__).resolve().parent.parent))
        assert findings == [], "\n".join(str(f) for f in findings)

"""Tests for the unified static-analysis framework: pass registry,
suppression comments, baseline workflow, SARIF output, and the CLI
driver (including the lint/docscheck alias contract)."""

import json
from pathlib import Path

import pytest

from repro.analyze import baseline as baselinemod
from repro.analyze import framework
from repro.analyze.driver import run_analysis
from repro.analyze.framework import AnalysisContext, Finding
from repro.analyze.sarif import to_sarif

ROOT = Path(__file__).resolve().parent.parent


def make_finding(**overrides):
    values = dict(pass_name="lint", rule="LINT-RANDOM", path="x.py",
                  line=3, message="bad", severity="warning")
    values.update(overrides)
    return Finding(**values)


class TestRegistry:
    def test_builtin_passes_register(self):
        framework.load_passes()
        names = [entry.name for entry in framework.all_passes()]
        assert names == sorted(names)
        for expected in ("async-hazard", "config-rules", "docscheck",
                         "lint", "spec-equiv"):
            assert expected in names

    def test_get_pass_rejects_unknown(self):
        framework.load_passes()
        with pytest.raises(ValueError, match="unknown analysis pass"):
            framework.get_pass("nope")

    def test_duplicate_registration_rejected(self):
        framework.load_passes()

        with pytest.raises(ValueError, match="already registered"):
            @framework.analysis_pass("lint", "duplicate")
            def duplicate(context):
                return []

    def test_custom_pass_runs_through_run_passes(self):
        framework.load_passes()

        @framework.analysis_pass("test-custom", "a test pass",
                                 rules={"T-1": "test rule"})
        def custom(context):
            return [make_finding(pass_name="test-custom", rule="T-1")]

        try:
            findings = framework.run_passes(
                ["test-custom"], AnalysisContext(root=ROOT))
            assert [f.rule for f in findings] == ["T-1"]
        finally:
            framework._REGISTRY.pop("test-custom")


class TestFinding:
    def test_severity_validated(self):
        with pytest.raises(ValueError):
            make_finding(severity="fatal")

    def test_gates(self):
        assert make_finding(severity="error").gates
        assert make_finding(severity="warning").gates
        assert not make_finding(severity="note").gates

    def test_str_includes_config_provenance(self):
        finding = make_finding(config="WSRS RC S 512")
        assert "x.py:3: LINT-RANDOM: bad" in str(finding)
        assert "WSRS RC S 512" in str(finding)


class TestSuppression:
    def test_ignore_comment_suppresses(self, tmp_path):
        source = tmp_path / "mod.py"
        source.write_text(
            "import random\n"
            "a = random.random()  # wsrs: ignore[LINT-RANDOM]\n"
            "b = random.random()  # wsrs: ignore\n"
            "c = random.random()  # wsrs: ignore[OTHER-RULE]\n"
            "d = random.random()\n")
        findings = [
            make_finding(path=str(source), line=line)
            for line in (2, 3, 4, 5)]
        kept = framework.filter_suppressed(findings, tmp_path)
        assert [f.line for f in kept] == [4, 5]

    def test_unreadable_paths_never_suppressed(self, tmp_path):
        finding = make_finding(path="<specialized:RR 256>", line=1)
        assert framework.filter_suppressed([finding], tmp_path) \
            == [finding]


class TestBaseline:
    def test_fingerprint_is_line_independent(self):
        first = baselinemod.fingerprint(make_finding(line=3))
        second = baselinemod.fingerprint(make_finding(line=99))
        assert first == second
        assert baselinemod.fingerprint(make_finding(message="other")) \
            != first

    def test_write_load_partition_roundtrip(self, tmp_path):
        path = tmp_path / "analysis-baseline.json"
        known_finding = make_finding()
        novel_finding = make_finding(rule="LINT-SET-ITER")
        assert baselinemod.write_baseline(path, [known_finding]) == 1
        known = baselinemod.load_baseline(path)
        novel, baselined = baselinemod.partition(
            [known_finding, novel_finding], known)
        assert novel == [novel_finding]
        assert baselined == [known_finding]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert baselinemod.load_baseline(tmp_path / "nope.json") == {}

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="version"):
            baselinemod.load_baseline(path)


class TestSarif:
    def test_well_formed_sarif(self):
        framework.load_passes()
        findings = [make_finding(),
                    make_finding(rule="LINT-SET-ITER", line=7,
                                 severity="error", config="RR 256")]
        report = to_sarif(findings, framework.all_passes(),
                          baselined=[make_finding(message="legacy")])
        assert report["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in report["$schema"]
        run = report["runs"][0]
        assert run["tool"]["driver"]["name"] == "wsrs-analyze"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "LINT-RANDOM" in rule_ids
        assert "SPEC-EQUIV-LITERAL" in rule_ids
        results = run["results"]
        assert len(results) == 3
        for result in results:
            assert result["ruleId"] in rule_ids
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == "x.py"
            assert location["region"]["startLine"] >= 1
            assert result["partialFingerprints"]["wsrsAnalyze/v1"]
        suppressed = [r for r in results if r.get("suppressions")]
        assert len(suppressed) == 1
        assert not run["invocations"][0]["executionSuccessful"]


class TestDriver:
    def test_analyze_clean_on_committed_baseline(self, capsys):
        code = run_analysis(passes=["lint"], root=str(ROOT))
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_novel_finding_gates(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        code = run_analysis(passes=["lint"], paths=[str(bad)],
                            root=str(tmp_path))
        assert code == 1
        output = capsys.readouterr().out
        assert "LINT-RANDOM" in output
        assert "1 finding(s)" in output

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert run_analysis(passes=["lint"], paths=[str(bad)],
                            root=str(tmp_path),
                            update_baseline=True) == 0
        assert (tmp_path / "analysis-baseline.json").exists()
        code = run_analysis(passes=["lint"], paths=[str(bad)],
                            root=str(tmp_path))
        assert code == 0
        assert "baselined" in capsys.readouterr().out

    def test_sarif_end_to_end(self, tmp_path):
        out = tmp_path / "report.sarif"
        code = run_analysis(passes=["lint"], root=str(ROOT),
                            fmt="sarif", out=str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["version"] == "2.1.0"
        assert report["runs"][0]["tool"]["driver"]["rules"]

    def test_unknown_pass_is_a_usage_error(self, capsys):
        assert run_analysis(passes=["nope"], root=str(ROOT)) == 2


class TestCliAliases:
    def test_analyze_list_passes(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--list-passes"]) == 0
        output = capsys.readouterr().out
        assert "spec-equiv" in output
        assert "ASYNC-BLOCKING-CALL" in output

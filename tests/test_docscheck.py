"""Tests for the documentation checker (repro.analyze.passes.docs_pass)."""

from pathlib import Path

from repro.analyze.framework import AnalysisContext, Finding, run_passes
from repro.analyze.passes.docs_pass import (
    check_cli_coverage,
    cli_subcommands,
    github_slug,
    heading_anchors,
    run_docscheck,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _docscheck(root, *paths):
    return run_passes(["docscheck"], AnalysisContext(root=root, paths=paths))


def _check(tmp_path, text, name="page.md"):
    page = tmp_path / name
    page.write_text(text)
    return _docscheck(tmp_path, page)


class TestSlugs:
    def test_github_slug_rules(self):
        assert github_slug("Quick Start") == "quick-start"
        assert github_slug("The `wsrs` CLI") == "the-wsrs-cli"
        assert github_slug("IPC (Figure 4)") == "ipc-figure-4"
        assert github_slug("Two  Spaces") == "two--spaces"

    def test_duplicate_headings_get_suffixes(self):
        lines = ["# Setup", "text", "# Setup", "## Setup"]
        anchors = heading_anchors(lines)
        assert set(anchors) == {"setup", "setup-1", "setup-2"}

    def test_headings_inside_fences_ignored(self):
        lines = ["```", "# not a heading", "```", "# Real"]
        assert set(heading_anchors(lines)) == {"real"}


class TestLinks:
    def test_valid_links_and_anchors_pass(self, tmp_path):
        (tmp_path / "other.md").write_text("# Target Section\n")
        text = ("# Top\n"
                "[self](#top) and [other](other.md#target-section) "
                "and [file](other.md) and "
                "[web](https://example.com/x#y)\n")
        assert _check(tmp_path, text) == []

    def test_dead_file_link(self, tmp_path):
        findings = _check(tmp_path, "[gone](missing.md)\n")
        assert findings == [Finding(
            pass_name="docscheck", rule="DOC-LINK", path="page.md", line=1,
            message="[link] dead link target 'missing.md'")]

    def test_path_is_relative_to_the_root_from_any_directory(
            self, tmp_path, monkeypatch):
        (tmp_path / "README.md").write_text("[gone](missing.md)\n")
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        findings = run_docscheck(AnalysisContext(root=tmp_path))
        assert [(f.rule, f.path) for f in findings
                if f.rule == "DOC-LINK"] == [("DOC-LINK", "README.md")]

    def test_dead_anchor(self, tmp_path):
        (tmp_path / "other.md").write_text("# Present\n")
        findings = _check(tmp_path, "[bad](other.md#absent)\n")
        assert [(f.rule, f.path, f.line, f.message) for f in findings] == [
            ("DOC-ANCHOR", "page.md", 1,
             "[anchor] no heading for anchor 'other.md#absent'")]

    def test_dead_self_anchor(self, tmp_path):
        findings = _check(tmp_path, "# Here\n[bad](#nowhere)\n")
        assert [(f.rule, f.line) for f in findings] == [("DOC-ANCHOR", 2)]

    def test_links_inside_fences_ignored(self, tmp_path):
        text = "```\n[not a link](missing.md)\n```\n"
        assert _check(tmp_path, text) == []


class TestCommands:
    def test_valid_commands_pass(self, tmp_path):
        text = ("```bash\n"
                "$ PYTHONPATH=src python -m repro simulate gzip --observe\n"
                "wsrs stacks --quick  # CI gate\n"
                "wsrs figure4 \\\n"
                "    --measure 1000\n"
                "```\n")
        assert _check(tmp_path, text) == []

    def test_stale_command_flagged(self, tmp_path):
        findings = _check(tmp_path,
                          "```bash\nwsrs simulate --no-such-flag\n```\n")
        assert [(f.rule, f.line) for f in findings] == [("DOC-COMMAND", 2)]
        assert findings[0].message.startswith(
            "[command] documented command no longer parses: "
            "'wsrs simulate --no-such-flag'")

    def test_unknown_subcommand_flagged(self, tmp_path):
        findings = _check(tmp_path, "```sh\nwsrs frobnicate\n```\n")
        assert [f.rule for f in findings] == ["DOC-COMMAND"]

    def test_python_blocks_are_not_commands(self, tmp_path):
        text = ("```python\n"
                "wsrs = simulate(config)  # a variable, not the CLI\n"
                "```\n")
        assert _check(tmp_path, text) == []

    def test_non_wsrs_shell_lines_skipped(self, tmp_path):
        text = "```bash\npip list\npython -m pytest\n```\n"
        assert _check(tmp_path, text) == []


class TestCliCoverage:
    def test_subcommand_inventory_comes_from_the_parser(self):
        names = cli_subcommands()
        assert "simulate" in names and "explore" in names
        assert names == sorted(names)

    def test_unmentioned_subcommands_are_flagged(self, tmp_path):
        page = tmp_path / "README.md"
        page.write_text("Only `wsrs simulate` is documented here.\n")
        findings = check_cli_coverage([page],
                                      AnalysisContext(root=tmp_path))
        missing = {f.message.split("'")[1] for f in findings}
        assert "simulate" not in missing
        assert "explore" in missing and "profiles" in missing
        assert all(f.rule == "DOC-CLI-COVERAGE" for f in findings)
        assert {(f.path, f.line) for f in findings} == {("README.md", 0)}
        assert "[cli-coverage] CLI subcommand 'explore' is not mentioned " \
            "in README.md or docs/ (add a 'wsrs explore' reference)" \
            in {f.message for f in findings}

    def test_prose_and_module_form_mentions_count(self, tmp_path):
        page = tmp_path / "README.md"
        mentions = [f"wsrs {name}" for name in cli_subcommands()[::2]]
        mentions += [f"python -m repro {name}"
                     for name in cli_subcommands()[1::2]]
        page.write_text("\n".join(mentions) + "\n")
        assert check_cli_coverage([page],
                                  AnalysisContext(root=tmp_path)) == []


class TestRepositoryDocs:
    def test_shipping_docs_are_clean(self):
        """README.md and docs/*.md must stay free of dead links, dead
        anchors and stale commands."""
        findings = run_docscheck(AnalysisContext(root=REPO_ROOT))
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_cli_reports_clean(self, capsys):
        assert main(["analyze", "--pass", "docscheck",
                     "--root", str(REPO_ROOT)]) == 0
        assert "analyze: clean" in capsys.readouterr().out

    def test_cli_reports_findings(self, tmp_path, capsys):
        page = tmp_path / "bad.md"
        page.write_text("[gone](missing.md)\n")
        assert main(["analyze", "--pass", "docscheck", str(page),
                     "--root", str(tmp_path)]) == 1
        assert "missing.md" in capsys.readouterr().out

"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_command(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"

    def test_figure4_arguments(self):
        args = build_parser().parse_args(
            ["figure4", "--measure", "5000", "--warmup", "2000",
             "--benchmarks", "gzip", "mcf"])
        assert args.measure == 5000
        assert args.benchmarks == ["gzip", "mcf"]

    def test_simulate_validates_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "not-a-benchmark"])

    def test_simulate_validates_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "gzip", "--config", "bogus"])

    def test_simulate_sanitize_flag(self):
        args = build_parser().parse_args(["simulate", "gzip", "--sanitize"])
        assert args.sanitize is True
        args = build_parser().parse_args(["simulate", "gzip"])
        assert args.sanitize is False

    def test_simulate_paranoid_and_reference_flags(self):
        # Both flags are gone: --sanitize checks the WSRS read/write
        # rules and --gear reference picks the reference stepper.
        for argv in (["--paranoid"], ["--reference"], ["--gear", "horizon"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["simulate", "gzip"] + argv)
        args = build_parser().parse_args(
            ["simulate", "gzip", "--gear", "reference"])
        assert args.gear == "reference"
        assert build_parser().parse_args(["simulate", "gzip"]).gear is None

    def test_profile_arguments(self):
        args = build_parser().parse_args(
            ["profile", "--quick", "--benchmark", "gcc",
             "--out", "custom.json"])
        assert args.quick is True
        assert args.benchmark == "gcc"
        assert args.out == "custom.json"
        args = build_parser().parse_args(["profile"])
        assert args.quick is False
        assert args.benchmark is None  # resolves to the mcf default

    def test_lint_and_verify_commands(self):
        assert build_parser().parse_args(["lint"]).command == "lint"
        args = build_parser().parse_args(["verify", "--config", "RR 256"])
        assert args.config == "RR 256"


class TestCommands:
    def test_table1_succeeds(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "noWS-M" in output
        assert "match the paper" in output

    def test_profiles_lists_all_benchmarks(self, capsys):
        assert main(["profiles"]) == 0
        output = capsys.readouterr().out
        for name in ("gzip", "mcf", "wupwise", "facerec"):
            assert name in output

    def test_simulate_prints_stats(self, capsys):
        code = main(["simulate", "gzip", "--config", "WSRS RC S 512",
                     "--measure", "2000", "--warmup", "1000"])
        assert code == 0
        output = capsys.readouterr().out
        assert "IPC" in output
        assert "unbalancing" in output

    def test_figure5_tiny_run(self, capsys):
        code = main(["figure5", "--measure", "2000", "--warmup", "1000",
                     "--benchmarks", "gzip"])
        output = capsys.readouterr().out
        assert "Figure 5" in output
        assert code in (0, 1)  # relations may not hold at tiny scale

    def test_lint_repo_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_reports_findings(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nrandom.random()\n",
                       encoding="utf-8")
        assert main(["lint", str(bad)]) == 1
        output = capsys.readouterr().out
        assert "LINT-RANDOM" in output
        assert "1 finding(s)" in output

    def test_verify_all_configs_pass(self, capsys):
        assert main(["verify"]) == 0
        output = capsys.readouterr().out
        assert "CFG-WRITE-PARTITION" in output
        assert "WSRS RC S 512" in output
        assert "FAIL" not in output

    def test_simulate_sanitized_tiny_run(self, capsys):
        code = main(["simulate", "gzip", "--config", "WSRS RC S 512",
                     "--sanitize", "--measure", "1500", "--warmup", "500"])
        assert code == 0
        assert "IPC" in capsys.readouterr().out

    def test_simulate_reference_gear_matches_fast_path(self, capsys):
        argv = ["simulate", "vpr", "--config", "RR 256",
                "--measure", "1500", "--warmup", "500"]
        assert main(argv + ["--gear", "reference"]) == 0
        reference = capsys.readouterr().out.splitlines()
        assert main(argv) == 0
        default = capsys.readouterr().out.splitlines()
        gear_line = [line.startswith("gear ") for line in default]
        assert gear_line.count(True) == 1
        index = gear_line.index(True)
        assert default[index].split() == ["gear", "specialized"]
        assert reference[index].split() == ["gear", "reference"]
        del default[index], reference[index]
        assert default == reference

    def test_profile_quick_writes_record(self, capsys, tmp_path):
        import json
        from pathlib import Path

        # The committed trajectory must not pick up test-time records:
        # both outputs go to the temp dir.
        committed = Path(__file__).resolve().parents[1] \
            / "BENCH_history.jsonl"
        before = committed.read_bytes() if committed.exists() else None
        out = tmp_path / "BENCH_core.json"
        history = tmp_path / "BENCH_history.jsonl"
        code = main(["profile", "--quick", "--benchmark", "gzip",
                     "--out", str(out), "--history", str(history)])
        assert code == 0
        after = committed.read_bytes() if committed.exists() else None
        assert after == before
        assert len(history.read_text(encoding="utf-8").splitlines()) == 1
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["identical"] is True
        assert len(record["cells"]) == 6
        for cell in record["cells"]:
            assert cell["identical"] is True
            assert cell["specialized_kips"] > 0
        output = capsys.readouterr().out
        assert "s-speed" in output
        assert "DIVERGED" not in output

    def test_profile_appends_history_only_when_asked(
            self, capsys, tmp_path, monkeypatch):
        from repro.experiments import profile

        monkeypatch.setattr(profile, "run",
                            lambda **_kwargs: {"identical": True,
                                               "cells": []})
        monkeypatch.chdir(tmp_path)
        history = tmp_path / "BENCH_history.jsonl"
        history.write_bytes(b'{"sha": "committed"}\n')
        assert main(["profile", "--quick"]) == 0
        assert history.read_bytes() == b'{"sha": "committed"}\n'
        assert "perf-history" not in capsys.readouterr().out

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
        # Lint and the config rules are passes of `wsrs analyze`.
        args = build_parser().parse_args(
            ["analyze", "--pass", "lint", "--pass", "config-rules"])
        assert args.passes == ["lint", "config-rules"]
        for alias in ("lint", "verify", "docscheck"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([alias])


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
        assert main(["analyze", "--pass", "lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_reports_findings(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nrandom.random()\n",
                       encoding="utf-8")
        assert main(["analyze", "--pass", "lint", str(bad)]) == 1
        output = capsys.readouterr().out
        assert "LINT-RANDOM" in output
        assert "1 finding(s)" in output

    def test_verify_all_configs_pass(self, capsys):
        assert main(["analyze", "--pass", "config-rules"]) == 0
        assert "clean" in capsys.readouterr().out
        assert main(["analyze", "--list-passes"]) == 0
        assert "CFG-WRITE-PARTITION" in capsys.readouterr().out

    def test_simulate_sanitized_tiny_run(self, capsys):
        code = main(["simulate", "gzip", "--config", "WSRS RC S 512",
                     "--sanitize", "--measure", "1500", "--warmup", "500"])
        assert code == 0
        assert "IPC" in capsys.readouterr().out

    def test_simulate_reference_gear_matches_specialized(self, capsys):
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

        out = tmp_path / "BENCH_core.json"
        code = main(["profile", "--quick", "--benchmark", "gzip",
                     "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["identical"] is True
        assert len(record["cells"]) == 6
        for cell in record["cells"]:
            assert cell["identical"] is True
            assert cell["specialized_kips"] > 0
        output = capsys.readouterr().out
        assert "s-speed" in output
        assert "DIVERGED" not in output

    @staticmethod
    def _fake_profile(monkeypatch, identical, speedups):
        from repro.experiments import profile

        cells = [{"config": name, "identical": identical,
                  "specialized_speedup": speedup}
                 for name, speedup in speedups.items()]
        monkeypatch.setattr(profile, "run", lambda **_kwargs: {
            "identical": identical, "cells": cells})

    def test_profile_fails_when_a_cell_diverges(self, monkeypatch):
        self._fake_profile(monkeypatch, False, {"RR 256": 3.0})
        assert main(["profile", "--quick",
                     "--min-specialized-speedup", "2"]) == 1

    def test_profile_speedup_floor_names_the_slow_config(
            self, capsys, monkeypatch):
        self._fake_profile(monkeypatch, True,
                           {"RR 256": 3.0, "WSRS RC S 512": 1.5})
        assert main(["profile", "--quick",
                     "--min-specialized-speedup", "2"]) == 1
        err = capsys.readouterr().err
        assert "WSRS RC S 512 (1.50x)" in err
        assert "RR 256" not in err

    def test_profile_speedup_floor_passes_at_the_floor(self, monkeypatch):
        self._fake_profile(monkeypatch, True,
                           {"RR 256": 2.0, "WSRS RC S 512": 2.0})
        assert main(["profile", "--quick",
                     "--min-specialized-speedup", "2"]) == 0

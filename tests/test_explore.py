"""Tests for the design-space auto-explorer (repro.explore)."""

import json

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.explore import (
    DEFAULT_BUDGET,
    FrontierPoint,
    LatticeSpec,
    enumerate_lattice,
    estimate_throughput,
    explore,
    pareto,
    prefilter_cells,
    rank_value,
)
from repro.explore.explorer import plan
from repro.explore.frontier import dominates, ranked
from repro.explore.lattice import LatticeError

#: Small spec/cluster/register lattice used by the simulation tests:
#: 12 valid cells, every specialization and both cluster counts
#: represented, registers on the axis the pre-filter claims to rank.
GUARD_SPEC = LatticeSpec(
    specializations=("none", "ws", "wsrs"),
    clusters=(2, 4),
    registers=(81, 128),
    widths=(8,),
    steerings=("round_robin", "random_commutative", "mapped_random"),
    deadlocks=("auto",),
    benchmarks=("gzip",),
)


class TestFrontier:
    def test_three_point_frontier(self):
        a = FrontierPoint("a", energy_per_instruction=1.0, delay=1.0)
        b = FrontierPoint("b", energy_per_instruction=2.0, delay=2.0)
        c = FrontierPoint("c", energy_per_instruction=0.5, delay=3.0)
        frontier, dominated_by = pareto([a, b, c])
        assert frontier == {"a", "c"}
        assert dominated_by == {"b": "a"}

    def test_exact_ties_all_stay_on_the_frontier(self):
        a = FrontierPoint("a", 1.0, 1.0)
        twin = FrontierPoint("twin", 1.0, 1.0)
        frontier, dominated_by = pareto([a, twin])
        assert frontier == {"a", "twin"}
        assert dominated_by == {}

    def test_dominance_needs_strict_improvement_on_one_axis(self):
        a = FrontierPoint("a", 1.0, 2.0)
        b = FrontierPoint("b", 1.0, 3.0)
        assert dominates(a, b) and not dominates(b, a)
        assert not dominates(a, a)

    def test_rank_values_and_order(self):
        fast = FrontierPoint("fast", energy_per_instruction=2.0, delay=1.0)
        frugal = FrontierPoint("frugal", energy_per_instruction=1.0,
                               delay=1.5)
        assert rank_value(fast, "ed") == pytest.approx(2.0)
        assert rank_value(fast, "ed2p") == pytest.approx(2.0)
        assert rank_value(frugal, "ed") == pytest.approx(1.5)
        assert rank_value(frugal, "ed2p") == pytest.approx(2.25)
        # ed prefers the frugal point, ed2p weights delay twice and
        # breaks the tie by name.
        assert [p.name for p in ranked([fast, frugal], "ed")] == \
            ["frugal", "fast"]
        assert [p.name for p in ranked([fast, frugal], "ed2p")] == \
            ["fast", "frugal"]


class TestLattice:
    def test_default_lattice_is_broad(self):
        spec = LatticeSpec()
        assert spec.num_cells >= 200
        cells = enumerate_lattice(spec)
        assert len(cells) == spec.num_cells
        assert sum(1 for c in cells if c.valid) >= 50

    def test_cfg_invalid_cells_keep_rule_provenance(self):
        cells = enumerate_lattice(LatticeSpec())
        invalid = [c for c in cells if c.status == "invalid"]
        assert invalid, "expected CFG-invalid cells in the default lattice"
        for cell in invalid:
            assert cell.config is None
            assert cell.provenance
            assert any("[CFG-" in reason for reason in cell.provenance)

    def test_nothing_rejected_is_ever_planned(self):
        cells, survivors, _ = plan(LatticeSpec())
        rejected = {c.name for c in cells if not c.valid}
        assert rejected.isdisjoint({c.name for c in survivors})

    def test_duplicates_point_at_the_kept_cell(self):
        cells = enumerate_lattice(LatticeSpec())
        by_name = {c.name: c for c in cells}
        duplicates = [c for c in cells if c.status == "duplicate"]
        assert duplicates
        for cell in duplicates:
            assert by_name[cell.duplicate_of].valid

    def test_unknown_axis_is_rejected(self):
        with pytest.raises(LatticeError):
            LatticeSpec.from_dict({"specialisations": ["ws"]})

    def test_unknown_rank_and_empty_budget_fail_fast(self):
        with pytest.raises(ExperimentError):
            plan(LatticeSpec(), rank="edp")
        with pytest.raises(ExperimentError):
            plan(LatticeSpec(), budget=0)


class TestPrefilter:
    def test_default_lattice_prunes_at_least_half(self):
        cells, survivors, pruned = plan(LatticeSpec(),
                                        budget=DEFAULT_BUDGET)
        valid = sum(1 for c in cells if c.valid)
        assert len(survivors) + len(pruned) == valid
        assert len(pruned) >= valid / 2
        for record in pruned:
            assert record["estimated_ipc"] > 0
            assert record["analytic_ed2p"] > 0

    def test_analytic_frontier_survives_any_budget(self):
        cells = enumerate_lattice(GUARD_SPEC)
        valid = [c for c in cells if c.valid]
        generous, _ = prefilter_cells(valid, GUARD_SPEC.benchmarks,
                                      budget=len(valid))
        starved, _ = prefilter_cells(valid, GUARD_SPEC.benchmarks,
                                     budget=1)
        frontier, _ = pareto([
            _analytic_point(c) for c in valid])
        assert frontier <= {c.name for c in starved}
        assert {c.name for c in starved} <= {c.name for c in generous}

    def test_estimates_are_finite_and_ordered_sanely(self):
        cells = enumerate_lattice(GUARD_SPEC)
        for cell in cells:
            if not cell.valid:
                continue
            estimate = estimate_throughput(cell.config, "gzip")
            assert 0 < estimate.estimated_ipc <= cell.config.front_width
            assert estimate.bottleneck in (
                "structural", "branch", "memory", "dependency")


def _analytic_point(cell):
    from repro.explore.queuing import analytic_point

    return analytic_point(cell, GUARD_SPEC.benchmarks)


class TestGuard:
    """The pre-filter's contract: ground truth never pruned."""

    def test_measured_frontier_is_never_pruned(self):
        truth = explore(GUARD_SPEC, prefilter=False,
                        measure=1_500, warmup=500, seed=1, workers=1)
        filtered = explore(GUARD_SPEC, budget=6, prefilter=True,
                           measure=1_500, warmup=500, seed=1, workers=1)
        survivors = {row["cell"] for row in filtered["results"]}
        measured_frontier = set(truth["frontier"])
        assert measured_frontier, "ground-truth frontier must not be empty"
        missing = measured_frontier - survivors
        assert not missing, (
            f"analytic pre-filter pruned measured-frontier cells "
            f"{sorted(missing)}; retune repro.explore.queuing")
        assert filtered["pruned"], "budget 6 of 12 must prune something"

    def test_wsrs_reaches_the_measured_frontier(self):
        payload = explore(GUARD_SPEC, budget=6, measure=1_500,
                          warmup=500, seed=1, workers=1)
        assert any(name.startswith("wsrs-")
                   for name in payload["frontier"])


class TestExplorePayload:
    def test_payload_shape_and_determinism(self):
        spec = LatticeSpec(
            specializations=("ws", "wsrs"), clusters=(4,),
            registers=(81,), widths=(8,),
            steerings=("round_robin", "random_commutative"),
            deadlocks=("auto",), benchmarks=("gzip",))
        one = explore(spec, budget=2, measure=1_000, warmup=500,
                      workers=1)
        two = explore(spec, budget=2, measure=1_000, warmup=500,
                      workers=1)
        assert json.dumps(one, sort_keys=True) == \
            json.dumps(two, sort_keys=True)
        assert one["schema"] == 1
        counts = one["counts"]
        assert counts["cells"] == spec.num_cells
        assert counts["simulated"] == len(one["results"])
        assert counts["frontier"] == len(one["frontier"])
        for row in one["results"]:
            point = FrontierPoint(row["cell"],
                                  row["energy_per_instruction"],
                                  row["delay_cpi"])
            assert row["ed"] == pytest.approx(rank_value(point, "ed"))
            assert row["ed2p"] == pytest.approx(rank_value(point, "ed2p"))
            if row["frontier"]:
                assert row["dominated_by"] is None
            else:
                assert row["dominated_by"] in {r["cell"]
                                               for r in one["results"]}


class TestCli:
    def test_explore_cli_writes_payload(self, tmp_path, capsys):
        lattice = tmp_path / "lattice.json"
        lattice.write_text(json.dumps({
            "specializations": ["ws", "wsrs"],
            "clusters": [4],
            "registers": [81],
            "widths": [8],
            "steerings": ["round_robin", "random_commutative"],
            "deadlocks": ["auto"],
            "benchmarks": ["gzip"],
        }))
        out = tmp_path / "BENCH_explore.json"
        code = main(["explore", "--lattice", str(lattice),
                     "--budget", "2", "--measure", "1000",
                     "--warmup", "500", "--workers", "1",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["frontier"]
        stdout = capsys.readouterr().out
        assert "frontier" in stdout
        # Gear provenance is console-only: every cell line names its
        # gear, and the closing tally counts them (the WSRS cell is a
        # rename_impl=1 machine, which runs specialized too).
        cell_lines = [line for line in stdout.splitlines()
                      if line.startswith("  [")]
        assert cell_lines
        assert all(line.endswith("  specialized") for line in cell_lines)
        assert f"gears: specialized {len(cell_lines)}\n" in stdout

    def test_explore_cli_rejects_bad_lattice(self, tmp_path, capsys):
        lattice = tmp_path / "lattice.json"
        lattice.write_text(json.dumps({"specialisations": ["ws"]}))
        assert main(["explore", "--lattice", str(lattice)]) != 0

"""Service round-trip tests for the explore job kind."""

import json
from dataclasses import replace

import pytest

from repro.experiments.runner import execute
from repro.explore import explore
from repro.explore.lattice import LatticeSpec
from repro.service.jobs import (
    JobValidationError,
    MAX_CELLS,
    canonical_form,
    cell_specs,
    job_key,
    job_payload,
    parse_request,
)

LATTICE = {
    "specializations": ["ws", "wsrs"],
    "clusters": [4],
    "registers": [81, 128],
    "widths": [8],
    "steerings": ["round_robin", "random_commutative"],
    "deadlocks": ["auto"],
    "benchmarks": ["gzip"],
}


def explore_payload(**overrides):
    payload = {"kind": "explore", "lattice": dict(LATTICE), "budget": 4,
               "prefilter": True, "rank": "ed2p", "measure": 1_000,
               "warmup": 500, "seed": 1}
    payload.update(overrides)
    return payload


class TestValidation:
    def test_minimal_explore_request(self):
        request = parse_request(explore_payload())
        assert request.kind == "explore"
        assert request.budget == 4
        assert request.rank == "ed2p"
        assert request.num_cells > 0

    def test_default_lattice_allowed(self):
        request = parse_request(explore_payload(lattice=None))
        assert json.loads(request.lattice) == LatticeSpec().as_dict()

    @pytest.mark.parametrize("defect", [
        {"lattice": {"specialisations": ["ws"]}},   # typoed axis
        {"lattice": {"clusters": [0]}},             # below the minimum
        {"lattice": "not-an-object"},
        {"rank": "edp"},
        {"budget": 0},
        {"budget": MAX_CELLS + 1},
        {"prefilter": "yes"},
        {"measure": 0},
        {"seed": -1},
    ])
    def test_defective_payloads_rejected(self, defect):
        with pytest.raises(JobValidationError):
            parse_request(explore_payload(**defect))

    def test_oversized_exploration_is_shed_at_admission(self):
        # No pre-filter: every valid cell of the full default lattice
        # would simulate, far beyond the per-job cap.
        with pytest.raises(JobValidationError) as excinfo:
            parse_request(explore_payload(lattice=None, prefilter=False))
        assert str(MAX_CELLS) in str(excinfo.value)


class TestIdempotency:
    def test_key_is_stable(self):
        assert job_key(parse_request(explore_payload())) == \
            job_key(parse_request(explore_payload()))

    @pytest.mark.parametrize("variation", [
        {"budget": 5},
        {"rank": "ed"},
        {"prefilter": False, "lattice": {"clusters": [4],
                                         "widths": [8]}},
        {"lattice": {**LATTICE, "registers": [81]}},
        {"measure": 2_000},
        {"seed": 2},
    ])
    def test_result_shaping_fields_change_the_key(self, variation):
        base = job_key(parse_request(explore_payload()))
        varied = job_key(parse_request(explore_payload(**variation)))
        assert base != varied

    def test_scheduling_fields_do_not_change_the_key(self):
        assert job_key(parse_request(explore_payload(priority=0))) == \
            job_key(parse_request(explore_payload(priority=9)))

    def test_canonical_form_carries_the_lattice(self):
        form = canonical_form(parse_request(explore_payload()))
        assert form["lattice"] == LatticeSpec.from_dict(LATTICE).as_dict()
        assert form["budget"] == 4
        assert form["rank"] == "ed2p"


class TestRoundTrip:
    def test_service_payload_bit_identical_to_direct_run(self):
        """The scheduler path (parse -> cell_specs -> execute per cell
        -> job_payload) must reproduce `wsrs explore` byte for byte."""
        request = parse_request(explore_payload())
        results = [execute(spec) for spec in cell_specs(request)]
        via_service = job_payload(request, results)
        direct = explore(LatticeSpec.from_dict(LATTICE), budget=4,
                         measure=1_000, warmup=500, seed=1, workers=1)
        assert json.dumps(via_service, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)
        assert via_service["frontier"]

    def test_gear_provenance_stays_out_of_the_payloads(self):
        """RunResult's gear/despecializations must not reach
        the stored payloads, whose digests the benchmark goldens pin:
        explore and matrix payloads are unchanged when the provenance
        of every result is rewritten."""
        for request in (parse_request(explore_payload()),
                        parse_request({"kind": "matrix",
                                       "benchmarks": ["gzip"],
                                       "configs": ["RR 256", "WSRR 512"],
                                       "measure": 300})):
            results = [execute(spec) for spec in cell_specs(request)]
            assert {result.gear for result in results} & \
                {"specialized", "reference"}
            rewritten = [replace(result, gear="reference",
                                 despecializations=7)
                         for result in results]
            text = json.dumps(job_payload(request, results),
                              sort_keys=True)
            assert text == json.dumps(job_payload(request, rewritten),
                                      sort_keys=True)
            for name in ("gear", "despecializations"):
                assert f'"{name}"' not in text

"""Tests for the service job model: validation, idempotency keys,
payload shaping."""

import pytest

from repro.experiments.runner import execute
from repro.service.jobs import (
    Job,
    JobValidationError,
    MAX_CELLS,
    canonical_form,
    cell_payload,
    cell_specs,
    job_key,
    job_payload,
    new_job_id,
    parse_request,
)
from repro.trace.synthetic import GENERATOR_VERSION


def simulate_payload(**overrides):
    payload = {"kind": "simulate", "benchmark": "gzip",
               "config": "RR 256", "measure": 1_000, "warmup": 0,
               "seed": 1}
    payload.update(overrides)
    return payload


class TestValidation:
    def test_minimal_simulate_request(self):
        request = parse_request(simulate_payload())
        assert request.kind == "simulate"
        assert request.benchmarks == ("gzip",)
        assert request.configs == ("RR 256",)
        assert request.num_cells == 1

    @pytest.mark.parametrize("defect", [
        {"kind": "frobnicate"},
        {"benchmark": "no-such-benchmark"},
        {"config": "RR 9999"},
        {"measure": 0},
        {"measure": 10 ** 9},          # abuse bound
        {"measure": "many"},
        {"warmup": -1},
        {"seed": -5},
        {"priority": 99},
        {"measure": True},             # bool is not an int here
        {"observe": "false"},          # a truthy string, not False
    ])
    def test_defective_payloads_rejected(self, defect):
        with pytest.raises(JobValidationError):
            parse_request(simulate_payload(**defect))

    def test_non_dict_payload_rejected(self):
        with pytest.raises(JobValidationError):
            parse_request(["not", "a", "job"])

    def test_simulate_rejects_sweeps(self):
        with pytest.raises(JobValidationError):
            parse_request({"kind": "simulate",
                           "benchmarks": ["gzip", "mcf"],
                           "configs": ["RR 256"]})

    def test_matrix_expands_row_major(self):
        request = parse_request({"kind": "matrix",
                                 "benchmarks": ["gzip", "mcf"],
                                 "configs": ["RR 256", "WSRS RC S 512"],
                                 "measure": 500})
        specs = cell_specs(request)
        assert [(s.benchmark, s.config.name) for s in specs] == [
            ("gzip", "RR 256"), ("gzip", "WSRS RC S 512"),
            ("mcf", "RR 256"), ("mcf", "WSRS RC S 512")]

    def test_cell_cap_enforced(self):
        too_many = ["gzip"] * (MAX_CELLS + 1)
        with pytest.raises(JobValidationError):
            parse_request({"kind": "matrix", "benchmarks": too_many,
                           "configs": ["RR 256"]})

    def test_stacks_forces_observe(self):
        request = parse_request({"kind": "stacks", "benchmarks": ["gzip"],
                                 "configs": ["RR 256"], "observe": False})
        assert request.observe is True


class TestIdempotencyKeys:
    def test_identical_requests_share_a_key(self):
        assert job_key(parse_request(simulate_payload())) == \
            job_key(parse_request(simulate_payload()))

    @pytest.mark.parametrize("variation", [
        {"measure": 2_000}, {"warmup": 64}, {"seed": 2},
        {"config": "WSRS RC S 512"}, {"benchmark": "mcf"},
        {"observe": True},
    ])
    def test_any_result_shaping_field_changes_the_key(self, variation):
        base = job_key(parse_request(simulate_payload()))
        varied = job_key(parse_request(simulate_payload(**variation)))
        assert base != varied

    def test_priority_does_not_change_the_key(self):
        # Priority shapes scheduling, not results: identical work at
        # different priorities must still dedup onto one run.
        assert job_key(parse_request(simulate_payload(priority=0))) == \
            job_key(parse_request(simulate_payload(priority=9)))

    def test_key_embeds_the_trace_cache_scheme(self):
        canonical = canonical_form(parse_request(simulate_payload()))
        (cell,) = canonical["cells"]
        # (profile, materialised length, seed, GENERATOR_VERSION):
        # exactly repro.trace.cache.trace_key.
        assert cell["workload"][0] == "gzip"
        assert cell["workload"][3] == GENERATOR_VERSION


class TestPayloads:
    def test_cell_payload_is_plain_json(self):
        import json

        request = parse_request(simulate_payload(measure=500))
        (spec,) = cell_specs(request)
        payload = cell_payload(execute(spec))
        clone = json.loads(json.dumps(payload))
        assert clone == payload
        assert clone["summary"]["committed"] >= 500

    def test_matrix_payload_carries_a_table(self):
        request = parse_request({"kind": "matrix", "benchmarks": ["gzip"],
                                 "configs": ["RR 256"], "measure": 300})
        results = [execute(spec) for spec in cell_specs(request)]
        payload = job_payload(request, results)
        assert payload["table"]["gzip"]["RR 256"] == \
            payload["cells"][0]["summary"]

    def test_observed_cell_carries_causes(self):
        request = parse_request({"kind": "stacks", "benchmarks": ["gzip"],
                                 "configs": ["RR 256"], "measure": 300})
        (spec,) = cell_specs(request)
        payload = cell_payload(execute(spec))
        assert sum(payload["causes"].values()) == \
            payload["summary"]["cycles"]


class TestJobRecord:
    def test_job_ids_are_unique(self):
        assert len({new_job_id() for _ in range(64)}) == 64

    def test_as_dict_shields_the_result(self):
        request = parse_request(simulate_payload())
        job = Job(id="j0", key=job_key(request), request=request,
                  client="t", result={"cells": []})
        assert "result" in job.as_dict()
        assert "result" not in job.as_dict(include_result=False)

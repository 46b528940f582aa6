"""Each distinct machine is simulated once (repro.experiments.runner).

Two specs with the same :attr:`RunSpec.key` simulate bit-identically:
the key covers every ``MachineConfig`` field but ``name`` and folds the
deadlock policy to ``none`` on a machine the section 2.3 sizing rule
proves deadlock-free.  These tests pin that:

* **the key** - perturbing any field but ``name`` changes it; the
  lattice's duplicate key still tells a forced-``moves`` cell apart;
* **the engine** - ``execute_many``, serial and pooled, runs one
  ``execute`` per distinct key, returns results in spec order with no
  shared statistics, and reports progress once per spec;
* **the scheduler** - an explore job on the default lattice runs 11
  distinct cells for its 16 survivors, with the direct run's payload;
* **the folding is sound** - on a sampled deadlock-free machine the
  ``none``/``moves``/``raise`` variants give identical fingerprints on
  both gears; elsewhere the key keeps the policy.
"""

import asyncio
import dataclasses
import functools
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze.passes.spec_equiv import sampled_configs
from repro.config import (
    ClusterConfig,
    MachineConfig,
    MemoryConfig,
    baseline_rr_256,
    ws_rr,
)
from repro.experiments import runner
from repro.experiments.runner import RunSpec, execute, execute_many
from repro.explore import explore
from repro.explore.lattice import LatticeSpec, _structural_key, \
    build_config
from repro.service.jobs import DONE
from repro.service.scheduler import Scheduler, SchedulerConfig

MEASURE = 2_000
WARMUP = 1_000


def _logged_execute(log_path, spec):
    """``execute`` that appends the config's name to ``log_path``; works
    in pool workers too."""
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(spec.config.name + "\n")
    return execute(spec)


def _logged(log_path):
    with open(log_path, encoding="utf-8") as handle:
        return handle.read().split("\n")[:-1]


def _fingerprint(stats):
    return (stats.summary(), list(stats.cluster_allocated),
            list(stats.cluster_issued))


def _perturbed(value):
    """A different value of the same type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "-other"
    if isinstance(value, dict):
        first = sorted(value, key=lambda op: op.name)[0]
        return {**value, first: value[first] + 1}
    if isinstance(value, ClusterConfig):
        return dataclasses.replace(value, num_alus=value.num_alus + 1)
    if isinstance(value, MemoryConfig):
        return dataclasses.replace(value, l1_ports=value.l1_ports + 1)
    raise AssertionError(f"no perturbation for {value!r}")


class TestSimulationKey:
    def test_every_field_but_the_name_changes_the_key(self):
        # Subsets of exactly 80 registers: not deadlock-free, so the
        # declared policy is part of the key.
        base = ws_rr(320, deadlock_policy="moves")
        assert not base.deadlock_free
        for field in dataclasses.fields(MachineConfig):
            value = getattr(base, field.name)
            changed = base.with_changes(**{field.name: _perturbed(value)})
            same = field.name == "name"
            assert (changed.simulation_key == base.simulation_key) == same, \
                field.name
            assert (_structural_key(changed) == _structural_key(base)) \
                == same, field.name

    def test_policy_folds_only_on_a_deadlock_free_machine(self):
        free = ws_rr(512)
        assert free.deadlock_free
        keys = {free.with_changes(deadlock_policy=policy).simulation_key
                for policy in ("none", "moves", "raise")}
        assert len(keys) == 1
        # The lattice keeps a forced "moves" cell as its own design point.
        moves = free.with_changes(deadlock_policy="moves")
        assert _structural_key(moves) != _structural_key(free)

    def test_run_key_covers_the_spec(self):
        spec = RunSpec(config=baseline_rr_256(), benchmark="gzip")
        renamed = dataclasses.replace(
            spec, config=spec.config.with_changes(name="other"))
        assert renamed.key == spec.key
        for change in ({"benchmark": "mcf"}, {"measure": 1},
                       {"warmup": 1}, {"seed": 2}, {"predictor": "gshare"},
                       {"sanitize": True}, {"observe": True},
                       {"gear": "reference"}):
            assert dataclasses.replace(spec, **change).key != spec.key, \
                change


def _twin_specs():
    """Five specs, three distinct keys: a renamed copy and a forced-
    ``moves`` twin of one deadlock-free machine, plus another machine."""
    free = ws_rr(512)
    configs = (free, baseline_rr_256(),
               free.with_changes(name="WSRR 512 moves",
                                 deadlock_policy="moves"),
               free.with_changes(name="WSRR 512 copy"),
               baseline_rr_256(name="RR 256 copy"))
    return [RunSpec(config=config, benchmark="gzip", measure=MEASURE,
                    warmup=WARMUP) for config in configs]


class TestExecuteMany:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_twins_run_once(self, workers, tmp_path, monkeypatch):
        log = str(tmp_path / "runs.log")
        monkeypatch.setattr(runner, "execute",
                            functools.partial(_logged_execute, log))
        specs = _twin_specs()
        seen = []
        results = execute_many(specs, workers=workers, progress=seen.append)
        assert sorted(_logged(log)) == ["RR 256", "WSRR 512"]
        assert [result.spec for result in results] == specs
        assert sorted(map(id, seen)) == sorted(map(id, results))
        if workers == 1:
            assert seen == results
        assert len({id(result.stats) for result in results}) == len(specs)
        by_name = {result.spec.config.name: result for result in results}
        for twin, first in (("WSRR 512 moves", "WSRR 512"),
                            ("WSRR 512 copy", "WSRR 512"),
                            ("RR 256 copy", "RR 256")):
            assert _fingerprint(by_name[twin].stats) \
                == _fingerprint(by_name[first].stats)
            assert by_name[twin].gear == by_name[first].gear

    def test_a_twin_matches_its_own_run(self):
        specs = _twin_specs()
        shared = execute_many(specs, workers=1)
        alone = [execute(spec) for spec in specs]
        assert [_fingerprint(r.stats) for r in shared] \
            == [_fingerprint(r.stats) for r in alone]


class TestSchedulerExplore:
    def test_default_lattice_runs_11_distinct_cells_not_16(self, tmp_path):
        log = str(tmp_path / "runs.log")
        request = {"kind": "explore", "lattice": {"benchmarks": ["gzip"]},
                   "measure": MEASURE, "warmup": WARMUP, "seed": 1}

        async def main():
            scheduler = Scheduler(
                SchedulerConfig(workers=1),
                cell_runner=functools.partial(_logged_execute, log))
            await scheduler.start()
            try:
                job = scheduler.submit(request, client="a").job
                deadline = time.monotonic() + 60.0
                while not job.terminal:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.02)
                return job
            finally:
                await scheduler.shutdown()

        job = asyncio.run(main())
        assert job.state == DONE, job.error
        assert len(_logged(log)) == 11
        assert len(set(_logged(log))) == 11
        assert job.result["counts"]["simulated"] == 16
        direct = explore(LatticeSpec(benchmarks=("gzip",)),
                         measure=MEASURE, warmup=WARMUP, seed=1, workers=1)
        assert json.dumps(job.result) == json.dumps(direct)


def _policy_fingerprints(config, benchmark, seed, gear):
    """Distinct fingerprints of ``config`` under the three policies."""
    return {
        json.dumps(_fingerprint(execute(RunSpec(
            config=config.with_changes(deadlock_policy=policy),
            benchmark=benchmark, measure=MEASURE, warmup=WARMUP, seed=seed,
            gear=gear)).stats), sort_keys=True)
        for policy in ("none", "moves", "raise")}


@pytest.mark.parametrize("kind,steering", [
    ("ws", "round_robin"), ("wsrs", "random_commutative")])
@pytest.mark.parametrize("gear", ["reference", "specialized"])
def test_deadlock_policy_is_inert_on_a_register_starved_machine(
        kind, steering, gear):
    # 81 integer registers per subset: deadlock-free by one register,
    # and swim stalls for want of a free one thousands of times.
    config = build_config(kind, 4, 81, 8, steering, "auto")
    assert config.deadlock_free
    stats = execute(RunSpec(config=config, benchmark="swim",
                            measure=MEASURE, warmup=WARMUP)).stats
    assert stats.stall_no_register > 1_000
    assert len(_policy_fingerprints(config, "swim", 1, gear)) == 1


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 1 << 16),
       benchmark=st.sampled_from(("gzip", "mcf", "swim")))
def test_deadlock_policy_is_inert_on_a_deadlock_free_machine(seed,
                                                             benchmark):
    config = sampled_configs(1, seed=seed)[0]
    keys = {config.with_changes(deadlock_policy=policy).simulation_key
            for policy in ("none", "moves", "raise")}
    if not config.deadlock_free:
        assert len(keys) == 3
        return
    assert len(keys) == 1
    for gear in ("reference", "specialized"):
        assert len(_policy_fingerprints(config, benchmark, seed % 7 + 1,
                                        gear)) == 1, gear

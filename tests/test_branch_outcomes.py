"""Branch-outcome memo on trace-cache entries (repro.trace.cache).

The front end trains its predictor at fetch, in trace order, with no
wrong path, so the direction predicted for branch *k* depends on the
trace and the predictor kind only.  :func:`repro.experiments.runner.
execute` therefore replays one memo per (trace entry, predictor kind)
instead of building a predictor per cell.  These tests pin that:

* **Replay equals a live predictor** - for every predictor kind, the
  section-5 machines and sampled valid ones, both gears, hooked runs
  included, ``execute`` gives the statistics of a processor that owns a
  fresh predictor;
* **sharing** - six machines on one trace resolve each branch on the
  memo's live predictor exactly once, in trace order;
* **eviction** - clearing the cache drops the memo and its predictor;
* **fork** - pool workers forked from a parent that holds a partly
  filled memo extend their own copies and match the serial run;
* **threads** - threads running cells on one entry extend the memo
  once per branch and match the serial runs.
"""

import gc
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze.passes.spec_equiv import sampled_configs
from repro.config import figure4_configs
from repro.core.processor import Processor
from repro.experiments.runner import RunSpec, execute, execute_many
from repro.frontend.predictors import make_predictor
from repro.trace import cache as cache_mod
from repro.trace.cache import BranchReplay, TraceCache, default_cache
from repro.trace.profiles import spec_trace

MEASURE = 1_200
WARMUP = 400

KINDS = ("always-taken", "bimodal", "gshare", "2bcgskew")
CONFIGS = list(figure4_configs()) + sampled_configs(12)

#: Hook mixes a cell can ask for, as RunSpec / Processor keywords.
HOOKS = {
    "none": {},
    "sanitizer": {"sanitize": True},
    "observer": {"observe": True},
}


@pytest.fixture
def fresh_cache(monkeypatch):
    cache = TraceCache()
    monkeypatch.setattr(cache_mod, "_default_cache", cache)
    return cache


def _fingerprint(stats):
    return (stats.summary(), list(stats.cluster_allocated),
            list(stats.cluster_issued))


def _outcome(run):
    """A run's statistics, or the type of the error that stopped it."""
    try:
        return _fingerprint(run())
    except Exception as exc:  # a sampled config may deadlock: same way
        return type(exc)


def _live(spec):
    """``spec`` on a processor that owns a fresh predictor."""
    trace = spec_trace(spec.benchmark, spec.trace_length, seed=spec.seed)
    processor = Processor(spec.config, trace,
                          predictor=make_predictor(spec.predictor),
                          sanitize=True if spec.sanitize else None,
                          observe=spec.observe, gear=spec.gear)
    return processor.run(measure=spec.measure, warmup=spec.warmup)


def _spec(config, benchmark="gzip", seed=1, kind="2bcgskew", **kwargs):
    return RunSpec(config=config, benchmark=benchmark, measure=MEASURE,
                   warmup=WARMUP, seed=seed, predictor=kind, **kwargs)


def _count_live_resolves(outcomes):
    """Record the pc of every branch the memo's live predictor sees."""
    seen = []
    resolve = outcomes.live.resolve

    def counting(pc, taken):
        seen.append(pc)
        return resolve(pc, taken)

    outcomes.live.resolve = counting
    return seen


def _memo_matches_a_fresh_predictor(entry, kind):
    outcomes = entry.outcomes(kind)
    branches = [inst for inst in entry if inst.is_branch]
    fresh = make_predictor(kind)
    replayed = [int(fresh.resolve(inst.pc, inst.taken))
                for inst in branches[:len(outcomes.predicted)]]
    return replayed == list(outcomes.predicted)


class TestReplayEqualsLivePredictor:
    # One cache across examples: later draws replay memos that earlier
    # draws (other machines, other gears) filled part of the way.
    cache = TraceCache()

    @settings(max_examples=24, deadline=None)
    @given(kind=st.sampled_from(KINDS),
           benchmark=st.sampled_from(["gzip", "gcc", "mcf", "swim"]),
           seed=st.integers(min_value=1, max_value=3),
           config=st.sampled_from(CONFIGS),
           gear=st.sampled_from(["reference", "specialized"]),
           hooks=st.sampled_from(sorted(HOOKS)))
    def test_execute_matches_a_fresh_predictor(self, kind, benchmark,
                                               seed, config, gear, hooks):
        spec = _spec(config, benchmark, seed, kind, gear=gear,
                     **HOOKS[hooks])
        saved = cache_mod._default_cache
        cache_mod._default_cache = self.cache
        try:
            replayed = _outcome(lambda: execute(spec).stats)
        finally:
            cache_mod._default_cache = saved
        assert replayed == _outcome(lambda: _live(spec))


class TestSharing:
    def test_six_machines_resolve_each_branch_once(self, fresh_cache):
        specs = [_spec(config) for config in figure4_configs()]
        entry = fresh_cache.get("gzip", specs[0].trace_length)
        seen = _count_live_resolves(entry.outcomes("2bcgskew"))
        for spec in specs:
            assert _fingerprint(execute(spec).stats) \
                == _fingerprint(_live(spec))
        branch_pcs = [inst.pc for inst in entry if inst.is_branch]
        assert seen and seen == branch_pcs[:len(seen)]
        assert len(entry.outcomes("2bcgskew").predicted) == len(seen)
        assert _memo_matches_a_fresh_predictor(entry, "2bcgskew")

    def test_each_kind_keeps_its_own_memo(self, fresh_cache):
        config = figure4_configs()[0]
        for kind in ("gshare", "2bcgskew"):
            execute(_spec(config, kind=kind))
        entry = fresh_cache.get("gzip", _spec(config).trace_length)
        gshare, gskew = entry.outcomes("gshare"), entry.outcomes("2bcgskew")
        assert gshare is not gskew
        assert gshare.live.name == "gshare" and gskew.live.name == "2bcgskew"
        assert _memo_matches_a_fresh_predictor(entry, "gshare")
        assert _memo_matches_a_fresh_predictor(entry, "2bcgskew")


class TestEviction:
    def test_clear_drops_the_memo(self, fresh_cache):
        spec = _spec(figure4_configs()[0])
        execute(spec)
        entry = default_cache().get("gzip", spec.trace_length)
        outcomes = entry.outcomes("2bcgskew")
        assert len(outcomes.predicted) > 0
        live = weakref.ref(outcomes.live)
        del entry, outcomes
        default_cache().clear()
        gc.collect()
        assert live() is None
        again = default_cache().get("gzip", spec.trace_length)
        assert len(again.outcomes("2bcgskew").predicted) == 0


class TestFork:
    def test_pool_from_a_partly_filled_memo_equals_serial(self,
                                                          fresh_cache):
        configs = list(figure4_configs())[:4]
        specs = [_spec(config) for config in configs]
        entry = fresh_cache.get("gzip", specs[0].trace_length)
        # The parent replays a few hundred instructions first: forked
        # workers inherit a memo that stops mid-trace.
        Processor(configs[0], iter(entry),
                  predictor=BranchReplay(entry.outcomes("2bcgskew"))).run(
                      measure=300)
        held = len(entry.outcomes("2bcgskew").predicted)
        assert held > 0
        pooled = execute_many(specs, workers=2)
        # The workers' extensions stayed in the workers.
        assert len(entry.outcomes("2bcgskew").predicted) == held
        serial = execute_many(specs, workers=1)
        assert len(entry.outcomes("2bcgskew").predicted) > held
        for ours, theirs, spec in zip(serial, pooled, specs):
            assert _fingerprint(ours.stats) == _fingerprint(theirs.stats) \
                == _fingerprint(_live(spec))


class TestThreads:
    def test_threads_on_one_entry_match_serial(self, fresh_cache):
        # More threads than this suite's 2-core CI hosts have cores.
        specs = [_spec(config) for config in list(figure4_configs())[:4]]
        entry = fresh_cache.get("gzip", specs[0].trace_length)
        seen = _count_live_resolves(entry.outcomes("2bcgskew"))
        results = [None] * len(specs)

        def run(index):
            results[index] = execute(specs[index])

        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(len(specs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result, spec in zip(results, specs):
            assert _fingerprint(result.stats) == _fingerprint(_live(spec))
        assert len(seen) == len(entry.outcomes("2bcgskew").predicted)
        assert _memo_matches_a_fresh_predictor(entry, "2bcgskew")

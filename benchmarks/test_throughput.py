"""Performance benchmarks of the library's own hot paths.

Unlike the figure benches (one-shot experiment regeneration), these are
conventional pytest-benchmark micro-benchmarks with statistical rounds:
simulator cycles/second, trace-generation rate, predictor and cache
throughput.  Useful for catching performance regressions in the core.
"""

from repro.config import baseline_rr_256, wsrs_rc
from repro.core.processor import simulate
from repro.frontend.gskew import TwoBcGskewPredictor
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.profiles import get_profile, spec_trace
from repro.trace.synthetic import SyntheticTraceGenerator

SIM_SLICE = 8_000


def test_simulator_throughput_baseline(benchmark):
    trace = list(spec_trace("gzip", SIM_SLICE))

    def run():
        return simulate(baseline_rr_256(), iter(trace), measure=SIM_SLICE)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.committed == SIM_SLICE


def test_simulator_throughput_wsrs(benchmark):
    trace = list(spec_trace("gzip", SIM_SLICE))

    def run():
        return simulate(wsrs_rc(512), iter(trace), measure=SIM_SLICE)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.committed == SIM_SLICE


def test_trace_generation_rate(benchmark):
    generator = SyntheticTraceGenerator(get_profile("gcc"), seed=3)

    def generate():
        return sum(1 for _ in generator.generate(20_000))

    count = benchmark.pedantic(generate, rounds=3, iterations=1)
    assert count == 20_000


def test_predictor_throughput(benchmark):
    predictor = TwoBcGskewPredictor()
    outcomes = [(0x1000 + 16 * (i % 50), (i * 7) % 3 != 0)
                for i in range(20_000)]

    def run():
        hits = 0
        for pc, taken in outcomes:
            hits += predictor.predict(pc) == taken
            predictor.update(pc, taken)
        return hits

    hits = benchmark.pedantic(run, rounds=3, iterations=1)
    assert hits > 0


def test_cache_throughput(benchmark):
    memory = MemoryHierarchy()
    addresses = [(i * 64) % (1 << 20) for i in range(30_000)]

    def run():
        total = 0
        for cycle, addr in enumerate(addresses):
            total += memory.access(addr, cycle).latency
        return total

    total = benchmark.pedantic(run, rounds=3, iterations=1)
    assert total > 0

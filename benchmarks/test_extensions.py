"""Benchmark: section 4.3.1's locality claim and the 7-cluster machine.

Two measured claims beyond the headline figures:

* **Forwarding locality** (section 4.3.1): "statistically two out of
  four possible consumers for a result will be located on the producer
  cluster instead of only one out of four in a conventional
  architecture" - WSRS must roughly double round-robin's intra-cluster
  bypass share.
* **7-cluster WSRS** (companion report): the 14-way machine runs and
  beats the 8-way on high-ILP workloads.
"""

from repro.config import baseline_rr_256, wsrs_rc, wsrs_seven_cluster
from repro.core.processor import simulate
from repro.trace.profiles import spec_trace

MEASURE = 30_000
WARMUP = 40_000


def _run(config, benchmark, measure=MEASURE, warmup=WARMUP):
    trace = spec_trace(benchmark, measure + warmup + 8_192)
    return simulate(config, trace, measure=measure, warmup=warmup)


def test_forwarding_locality_claim(benchmark):
    def run():
        base = _run(baseline_rr_256(), "gzip")
        wsrs = _run(wsrs_rc(512), "gzip")
        return base.bypass_locality, wsrs.bypass_locality

    base_locality, wsrs_locality = benchmark.pedantic(run, rounds=1,
                                                      iterations=1)
    # round-robin scatters consumers: ~1/4 land on the producer cluster;
    # WSRS co-locates roughly twice that share
    assert base_locality < 0.35
    assert wsrs_locality > base_locality * 1.5


def test_seven_cluster_machine(benchmark):
    def run():
        four = _run(wsrs_rc(512), "facerec")
        seven = _run(wsrs_seven_cluster(), "facerec")
        return four.ipc, seven.ipc

    four_ipc, seven_ipc = benchmark.pedantic(run, rounds=1, iterations=1)
    assert seven_ipc > four_ipc  # 14-way wins on a high-ILP FP workload


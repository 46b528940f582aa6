"""Edge cases across modules, collected from review of the final code."""

import pytest

from repro.config import baseline_rr_256, two_cluster_4way, ws_rr, wsrs_rc
from repro.core.processor import Processor, simulate
from repro.cost.report import TABLE1_ORGANIZATIONS
from repro.frontend.predictors import AlwaysTakenPredictor
from repro.trace.model import OpClass, TraceInstruction
from tests.conftest import branch, ialu, load, store


class TestTraceBoundaries:
    def test_mispredicted_branch_as_last_instruction(self):
        """The penalty window must not hang the end-of-trace drain."""
        trace = [ialu(1), branch(1, taken=False, pc=0x40)]
        stats = simulate(baseline_rr_256(), iter(trace), measure=10,
                         predictor=AlwaysTakenPredictor())
        assert stats.committed == 2

    def test_store_as_last_instruction(self):
        trace = [ialu(1), store(1, 1, addr=0x100)]
        stats = simulate(baseline_rr_256(), iter(trace), measure=10)
        assert stats.committed == 2

    def test_zero_measure_runs_nothing(self):
        processor = Processor(baseline_rr_256(), iter([ialu(1)]))
        stats = processor.run(measure=0)
        assert stats.committed == 0

    def test_warmup_longer_than_trace(self):
        trace = [ialu(1 + i % 8) for i in range(50)]
        stats = simulate(baseline_rr_256(), iter(trace), measure=100,
                         warmup=200)
        # everything consumed during warm-up; measured slice is empty
        assert stats.committed == 0

    def test_trace_of_only_branches(self):
        trace = [branch(1, taken=True, pc=0x40 + 4 * i)
                 for i in range(40)]
        stats = simulate(baseline_rr_256(), iter(trace), measure=40,
                         predictor=AlwaysTakenPredictor())
        assert stats.committed == 40
        assert stats.branches == 40

    def test_trace_of_only_stores(self):
        trace = [store(1, 2, addr=0x100 + 8 * i) for i in range(30)]
        stats = simulate(baseline_rr_256(), iter(trace), measure=30)
        assert stats.committed == 30
        assert stats.stores == 30


class TestConfigConsistency:
    def test_two_cluster_machine_matches_table1_nows2_column(self):
        """The simulatable noWS-2 config and the Table 1 column must
        describe the same machine."""
        column = next(org for org in TABLE1_ORGANIZATIONS
                      if org.name == "noWS-2")
        config = two_cluster_4way()
        assert config.int_physical_registers == column.num_registers
        assert config.num_clusters == column.num_clusters

    def test_table1_ws_columns_match_the_simulated_configs(self):
        ws_column = next(org for org in TABLE1_ORGANIZATIONS
                         if org.name == "WS")
        wsrs_column = next(org for org in TABLE1_ORGANIZATIONS
                           if org.name == "WSRS")
        assert ws_rr(512).int_physical_registers == ws_column.num_registers
        assert wsrs_rc(512).int_physical_registers \
            == wsrs_column.num_registers

    def test_latency_dict_is_not_shared_between_configs(self):
        first = baseline_rr_256()
        second = baseline_rr_256()
        first.latencies[OpClass.IALU] = 99
        assert second.latencies[OpClass.IALU] == 1


class TestSchedulerEdges:
    def test_dependent_on_both_operands_of_one_producer(self):
        """src1 == src2 == same physical register: the double-waiter path."""
        trace = [ialu(1), TraceInstruction(OpClass.IALU, dest=2, src1=1,
                                           src2=1)]
        stats = simulate(baseline_rr_256(), iter(trace), measure=2)
        assert stats.committed == 2

    def test_long_latency_head_does_not_starve_commit_forever(self):
        trace = [TraceInstruction(OpClass.FPDIV, dest=80, src1=81,
                                  src2=82)] \
            + [ialu(1 + i % 8) for i in range(20)]
        stats = simulate(baseline_rr_256(), iter(trace), measure=21)
        assert stats.committed == 21

    def test_load_dependent_branch_resolves(self):
        """Branch condition fed by a cache-missing load (the expensive
        misprediction path)."""
        trace = [load(1, 2, addr=0x90000),
                 branch(1, taken=False, pc=0x44),
                 ialu(3)]
        stats = simulate(baseline_rr_256(), iter(trace), measure=3,
                         predictor=AlwaysTakenPredictor())
        assert stats.committed == 3
        assert stats.mispredictions == 1
        # resolution waited on the 94-cycle miss plus the penalty
        assert stats.cycles > 94 + 17


"""Tests for the SMT extension (repro.extensions.smt)."""

import pytest

from repro.config import baseline_rr_256, ws_rr, wsrs_rc
from repro.core.processor import simulate
from repro.errors import ConfigError
from repro.extensions.smt import (
    THREAD_PC_STRIDE,
    interleave,
    remap_thread_registers,
    smt_machine_config,
    smt_trace,
)
from repro.trace.model import OpClass, TraceInstruction, validate_trace
from tests.conftest import ialu


class TestRegisterRemapping:
    def test_integer_registers_get_private_slices(self):
        inst = ialu(5, src1=3)
        t0 = remap_thread_registers(inst, 0, 2)
        t1 = remap_thread_registers(inst, 1, 2)
        assert t0.dest == 5 and t0.src1 == 3
        assert t1.dest == 85 and t1.src1 == 83  # offset by 80

    def test_fp_registers_follow_the_integer_block(self):
        inst = TraceInstruction(OpClass.FPADD, dest=80, src1=81, src2=82)
        t0 = remap_thread_registers(inst, 0, 2)
        t1 = remap_thread_registers(inst, 1, 2)
        assert t0.dest == 160  # 2 threads x 80 ints, thread 0 fp slice
        assert t1.dest == 192  # thread 1 fp slice

    def test_pcs_are_disambiguated(self):
        inst = ialu(1, pc=0x100)
        assert remap_thread_registers(inst, 1, 2).pc \
            == 0x100 + THREAD_PC_STRIDE

    def test_none_operands_stay_none(self):
        inst = ialu(1)
        remapped = remap_thread_registers(inst, 1, 4)
        assert remapped.src1 is None and remapped.src2 is None


class TestInterleave:
    def test_round_robin_chunks(self):
        a = [ialu(1, pc=i) for i in range(4)]
        b = [ialu(2, pc=i) for i in range(4)]
        merged = list(interleave([a, b], chunk=2))
        # thread of each instruction, recovered from the pc offset
        threads = [inst.pc // THREAD_PC_STRIDE for inst in merged]
        assert threads == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_uneven_threads_drain_gracefully(self):
        a = [ialu(1) for _ in range(6)]
        b = [ialu(2) for _ in range(2)]
        merged = list(interleave([a, b], chunk=2))
        assert len(merged) == 8

    def test_registers_stay_in_the_widened_space(self):
        trace = list(smt_trace(["gzip", "wupwise"],
                               count_per_thread=2000))
        total = 2 * (80 + 32)
        assert len(list(validate_trace(iter(trace), total))) == 4000

    def test_empty(self):
        assert list(interleave([])) == []


class TestSmtConfig:
    def test_widens_logical_counts(self):
        config = smt_machine_config(baseline_rr_256(), threads=2)
        assert config.int_logical_registers == 160
        assert config.fp_logical_registers == 64
        assert "SMT-2" in config.name

    def test_ws_smt_requires_a_deadlock_policy(self):
        """The paper's section 2.3 point: WS subsets (128) cannot hold two
        threads' architected integer state (160)."""
        with pytest.raises(ConfigError, match="deadlock"):
            smt_machine_config(ws_rr(512), threads=2)

    def test_ws_smt_works_with_the_moves_workaround(self):
        config = smt_machine_config(ws_rr(512), threads=2,
                                    deadlock_policy="moves")
        config.validate()

    def test_rejects_zero_threads(self):
        with pytest.raises(ConfigError):
            smt_machine_config(baseline_rr_256(), threads=0)


class TestSmtSimulation:
    def test_two_threads_on_the_conventional_machine(self):
        config = smt_machine_config(baseline_rr_256(), threads=2)
        stats = simulate(config, smt_trace(["gzip", "vpr"], 4000),
                         measure=8000)
        assert stats.committed == 8000

    def test_two_threads_on_wsrs_with_moves(self):
        config = smt_machine_config(wsrs_rc(512), threads=2,
                                    deadlock_policy="moves")
        stats = simulate(config, smt_trace(["gzip", "wupwise"], 4000),
                         measure=8000, sanitize=True)
        assert stats.committed == 8000

    def test_smt_throughput_beats_the_low_ipc_thread(self):
        """Co-scheduling a memory-bound thread with a compute thread must
        beat the memory-bound thread running alone."""
        alone = simulate(baseline_rr_256(), smt_trace(["mcf"], 6000),
                         measure=6000)
        config = smt_machine_config(baseline_rr_256(), threads=2)
        both = simulate(config, smt_trace(["mcf", "gzip"], 6000),
                        measure=12000)
        assert both.ipc > alone.ipc

    def test_four_threads_exercise_the_deadlock_machinery(self):
        # 4 x 112 = 448 logical vs 512 physical integer registers: the
        # moves workaround must keep the machine alive.
        config = smt_machine_config(ws_rr(512), threads=4,
                                    deadlock_policy="moves")
        stats = simulate(
            config, smt_trace(["gzip", "vpr", "gcc", "crafty"], 2500),
            measure=10_000)
        assert stats.committed == 10_000

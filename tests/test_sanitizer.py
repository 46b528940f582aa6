"""The cycle-level pipeline sanitizer (repro.verify.sanitizer).

Positive direction: every section-5 configuration runs a real workload
under the sanitizer with zero violations - the shadow register-lifecycle
state machine, the Figure 3 read/write legality checks, the wake-up
width checks, the fast-forward timing checks and the per-subset free
conservation identity all hold on the honest simulator.

Negative direction: deliberately corrupted pipelines (a mis-steered
micro-op, a double-freed physical register, a register picked behind
the renamer's back) raise :class:`SanitizerViolation` carrying the rule
id and the cycle/uop provenance.
"""

import pytest

from repro.config import config_by_name, figure4_configs, ws_rr, wsrs_rc
from repro.core.processor import Processor
from repro.errors import VerificationError
from repro.frontend.predictors import make_predictor
from repro.trace.profiles import spec_trace
from repro.verify.sanitizer import (
    SANITIZE_ENV_VAR,
    STATE_ARCH,
    STATE_FREE,
    PipelineSanitizer,
    SanitizerViolation,
    sanitize_from_env,
)
from tests.conftest import random_trace

MEASURE = 2500
WARMUP = 800
SLICE = MEASURE + WARMUP + 4000


def _sanitized_processor(config, trace):
    return Processor(config, trace, predictor=make_predictor("2bcgskew"),
                     sanitize=True)


class TestSanitizedPaperConfigs:
    """All six section-5 configurations survive a sanitized run."""

    @pytest.mark.parametrize(
        "name", [config.name for config in figure4_configs()])
    def test_clean_run(self, name):
        config = config_by_name(name)
        processor = _sanitized_processor(
            config, spec_trace("gzip", SLICE))
        stats = processor.run(measure=MEASURE, warmup=WARMUP)
        assert stats.committed > 0
        # The sanitizer must actually have been exercising checks, not
        # silently disabled.
        assert processor.sanitizer is not None
        assert processor.sanitizer.checks > stats.committed

    def test_clean_run_fp_workload(self):
        processor = _sanitized_processor(
            config_by_name("WSRS RC S 512"), spec_trace("wupwise", SLICE))
        stats = processor.run(measure=MEASURE, warmup=WARMUP)
        assert stats.committed > 0

    def test_clean_run_random_trace(self):
        trace = random_trace(2000, seed=3)
        processor = _sanitized_processor(wsrs_rc(512), iter(trace))
        stats = processor.run(measure=2000)
        assert stats.committed == 2000


class TestViolationDetection:
    """Corrupted pipelines raise with rule id + cycle/uop provenance."""

    def test_missteered_uop_is_caught(self):
        # Steer every micro-op to cluster 0 regardless of its operand
        # subsets: on a WSRS machine this breaks the Figure 3 read
        # constraints at the first multi-subset instruction.  Only the
        # reference stepper calls ``allocate()``: the specialized gear
        # inlines the RC policy.
        processor = Processor(
            config_by_name("WSRS RC S 512"), spec_trace("gzip", SLICE),
            predictor=make_predictor("2bcgskew"), sanitize=True,
            gear="reference")
        processor.allocator.allocate = (
            lambda inst, subset_of=None, occupancy=None: (0, False))
        with pytest.raises(SanitizerViolation) as excinfo:
            processor.run(measure=MEASURE, warmup=WARMUP)
        violation = excinfo.value
        assert violation.rule in ("SAN-WAKEUP-WIDTH", "SAN-READ-SUBSET")
        assert violation.cycle >= 0
        assert violation.uop_seq is not None
        assert violation.rule in str(violation)

    def test_double_free_is_caught(self):
        processor = _sanitized_processor(
            config_by_name("WSRS RC S 512"), spec_trace("gzip", SLICE))
        processor.run(measure=1500, warmup=500)
        sanitizer = processor.sanitizer

        free_preg = next(p for p in range(len(sanitizer._state))
                         if sanitizer.state_of(p) == STATE_FREE)

        class ForgedCommit:
            seq = 424242
            pdest = None
            pold = free_preg
            dest = None

        with pytest.raises(SanitizerViolation) as excinfo:
            sanitizer.on_commit(ForgedCommit(), cycle=777)
        violation = excinfo.value
        assert violation.rule == "SAN-REG-STATE"
        assert violation.cycle == 777
        assert violation.uop_seq == 424242
        assert "double free" in str(violation)

    def test_conservation_break_is_caught(self):
        # Pick a register straight out of a free list, bypassing the
        # renamer: the end-of-cycle conservation identity (visible free +
        # staged/recycling == shadow-free) must notice the leak.
        processor = _sanitized_processor(
            config_by_name("WSRS RC S 512"), spec_trace("gzip", SLICE))
        processor.run(measure=1500, warmup=500)
        sanitizer = processor.sanitizer
        processor.renamer.int_class.free_lists[0].pick()
        with pytest.raises(SanitizerViolation) as excinfo:
            sanitizer.on_cycle_end(cycle=999)
        assert excinfo.value.rule == "SAN-CONSERVATION"
        assert excinfo.value.cycle == 999

    def test_violation_is_a_verification_error(self):
        assert issubclass(SanitizerViolation, VerificationError)


class TestPostMoveRearm:
    """Deadlock-breaking moves must not disarm SAN-REG-STATE.

    The sanitizer models a move as a real uop injected in program order
    immediately before the instruction whose rename triggered it.  A
    register the move freed keeps the use-after-free check armed
    relative to that boundary: readers renamed before it may consume
    the old copy, readers at or past it raise, and the double-free
    check stays armed for every register throughout.
    """

    def _run_past_moves(self):
        # 21 integer registers per subset against 64 logical registers:
        # subsets regularly choke on fully-architected state and the
        # moves workaround fires.
        config = ws_rr(84, deadlock_policy="moves",
                       fp_physical_registers=160)
        processor = _sanitized_processor(config, spec_trace("gcc", SLICE))
        processor.run(measure=MEASURE, warmup=WARMUP)
        assert processor.renamer.deadlock_moves > 0
        return processor

    def test_sanitized_moves_run_is_clean(self):
        # The exemption must be exactly wide enough: readers renamed
        # before a move may consume the moved-away copy afterwards
        # without a spurious use-after-free.
        processor = self._run_past_moves()
        assert processor.sanitizer.checks > 0

    def test_post_move_double_free_still_raises(self):
        processor = self._run_past_moves()
        sanitizer = processor.sanitizer
        free_preg = next(p for p in range(len(sanitizer._state))
                         if sanitizer.state_of(p) == STATE_FREE)

        class ForgedCommit:
            seq = 424242
            pdest = None
            pold = free_preg
            dest = None

        with pytest.raises(SanitizerViolation) as excinfo:
            sanitizer.on_commit(ForgedCommit(), cycle=777)
        assert excinfo.value.rule == "SAN-REG-STATE"
        assert "double free" in str(excinfo.value)

    def test_post_move_use_after_free_still_raises(self):
        processor = self._run_past_moves()
        sanitizer = processor.sanitizer
        free_preg = next(p for p in range(len(sanitizer._state))
                         if sanitizer.state_of(p) == STATE_FREE
                         and p not in sanitizer._move_freed)

        class ForgedIssue:
            seq = 515151
            cluster = 0
            pdest = None
            psrc1 = free_preg
            psrc2 = None

        with pytest.raises(SanitizerViolation) as excinfo:
            sanitizer.on_issue(ForgedIssue(), cycle=888)
        assert excinfo.value.rule == "SAN-REG-STATE"
        assert "use after free" in str(excinfo.value)

    def test_post_boundary_read_of_move_freed_register_raises(self):
        # The move is a real uop: a reader sequenced at or after the
        # move's boundary saw the post-move mapping, so reading the
        # freed copy is a genuine use-after-free.
        processor = self._run_past_moves()
        sanitizer = processor.sanitizer
        preg = next(p for p in range(len(sanitizer._state))
                    if sanitizer.state_of(p) == STATE_FREE)
        sanitizer._move_freed[preg] = 515151

        class ForgedIssue:
            seq = 515151
            cluster = 0
            pdest = None
            psrc1 = preg
            psrc2 = None

        with pytest.raises(SanitizerViolation) as excinfo:
            sanitizer.on_issue(ForgedIssue(), cycle=888)
        assert excinfo.value.rule == "SAN-REG-STATE"
        assert "use after free" in str(excinfo.value)
        assert "deadlock move" in str(excinfo.value)

    def test_boundary_ends_at_reallocation(self):
        # A move-freed register may be read by a pre-boundary uop
        # without complaint, but once it is re-allocated its next full
        # free/read lifecycle must trip the re-armed check even for
        # that same reader.
        processor = self._run_past_moves()
        sanitizer = processor.sanitizer
        preg = next(p for p in range(len(sanitizer._state))
                    if sanitizer.state_of(p) == STATE_FREE)
        sanitizer._move_freed[preg] = 616162  # reader below is earlier

        class Uop:
            seq = 616161
            cluster = sanitizer.locate(preg)[1]
            dest = None
            pdest = None
            pold = None
            psrc1 = None
            psrc2 = None
            first_port_operand = None
            second_port_operand = None

        read = Uop()
        read.psrc1 = preg
        sanitizer.on_issue(read, cycle=900)  # exempt: no violation

        alloc = Uop()
        alloc.pdest = preg
        sanitizer.on_dispatch(alloc, cycle=901)
        commit = Uop()
        commit.pdest = preg
        sanitizer.on_commit(commit, cycle=902)
        free = Uop()
        free.pold = preg
        sanitizer.on_commit(free, cycle=903)

        with pytest.raises(SanitizerViolation) as excinfo:
            sanitizer.on_issue(read, cycle=904)
        assert "use after free" in str(excinfo.value)


class TestActivation:
    """sanitize= argument, WSRS_SANITIZE env var, and their precedence."""

    def test_off_by_default(self):
        processor = Processor(config_by_name("RR 256"), iter([]))
        assert processor.sanitizer is None

    def test_explicit_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
        assert sanitize_from_env(False) is False
        monkeypatch.setenv(SANITIZE_ENV_VAR, "0")
        assert sanitize_from_env(True) is True

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("yes", True),
        ("0", False), ("", False), ("false", False), ("off", False),
    ])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv(SANITIZE_ENV_VAR, value)
        assert sanitize_from_env(None) is expected

    def test_env_unset(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        assert sanitize_from_env(None) is False

    def test_env_var_arms_processor(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
        processor = Processor(config_by_name("RR 256"), iter([]))
        assert isinstance(processor.sanitizer, PipelineSanitizer)


class TestShadowState:
    def test_initial_state_matches_map_table(self):
        processor = _sanitized_processor(
            config_by_name("WSRS RC S 512"), iter([]))
        sanitizer = processor.sanitizer
        config = processor.config
        mapped = (config.int_logical_registers
                  + config.fp_logical_registers)
        total = (config.int_physical_registers
                 + config.fp_physical_registers)
        states = [sanitizer.state_of(p) for p in range(total)]
        assert states.count(STATE_ARCH) == mapped
        assert states.count(STATE_FREE) == total - mapped

    def test_locate_global_registers(self):
        processor = _sanitized_processor(
            config_by_name("WSRS RC S 512"), iter([]))
        sanitizer = processor.sanitizer
        config = processor.config
        assert sanitizer.locate(0) == (0, 0)
        file_id, _subset = sanitizer.locate(config.int_physical_registers)
        assert file_id == 1

"""The trace generator against its original, unoptimised walk.

``SyntheticTraceGenerator.generate`` is a flat, hand-inlined loop.  The
walk it replaced is kept below, verbatim, as the oracle: for random
valid profiles, seeds and lengths, every field of every instruction
must match, so the streams (and ``GENERATOR_VERSION``) stay the same.
"""

import random
from typing import Iterator, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.model import OpClass, TraceInstruction
from repro.trace.profiles import PROFILES
from repro.trace.synthetic import (
    SyntheticTraceGenerator,
    WorkloadProfile,
    _Loop,
)
from tests.conftest import trace_fields


class _OracleGenerator(SyntheticTraceGenerator):
    """The same skeleton, walked by the original closure-based code."""

    def generate(self, count: int) -> Iterator[TraceInstruction]:
        """Yield exactly ``count`` dynamic instructions."""
        profile = self.profile
        plan = self.plan
        rng = random.Random(self.seed)
        recent_int: List[int] = list(plan.int_temps[:4])
        recent_fp: List[int] = list(plan.fp_temps[:4])
        window = profile.dep_window

        int_temp_cursor = 0
        fp_temp_cursor = 0
        emitted = 0
        loop_cursor = 0

        def next_int_temp() -> int:
            nonlocal int_temp_cursor
            reg = plan.int_temps[int_temp_cursor]
            int_temp_cursor = (int_temp_cursor + 1) % len(plan.int_temps)
            return reg

        def next_fp_temp() -> int:
            nonlocal fp_temp_cursor
            reg = plan.fp_temps[fp_temp_cursor]
            fp_temp_cursor = (fp_temp_cursor + 1) % len(plan.fp_temps)
            return reg

        def note_write(reg: int, fp: bool) -> None:
            recent = recent_fp if fp else recent_int
            if reg in recent:
                recent.remove(reg)
            recent.append(reg)
            if len(recent) > window:
                recent.pop(0)

        def pick_recent(fp: bool) -> int:
            # Two-mode producer distance: with probability dep_locality
            # the operand is the newest value (a tight, latency-critical
            # edge - compare->branch, address->load, accumulator updates);
            # otherwise it is drawn uniformly from the producer window
            # (wide, parallel dataflow).  Real code exhibits exactly this
            # bimodal reuse-distance shape.
            recent = recent_fp if fp else recent_int
            if rng.random() < profile.dep_locality:
                return recent[-1]
            return recent[rng.randrange(len(recent))]

        def pick_condition() -> int:
            # Branch conditions compare values computed a few instructions
            # earlier (the compiler schedules compares early), so read from
            # the old end of the producer window: the branch resolves as
            # soon as it reaches the issue stage instead of tailing the
            # newest dependence chain.
            recent = recent_int
            return recent[min(1, len(recent) - 1)]

        def pick_second_operand(fp: bool) -> int:
            invariants = plan.fp_invariants if fp else plan.int_invariants
            if invariants and rng.random() < profile.invariant_operand_prob:
                return invariants[rng.randrange(len(invariants))]
            return pick_recent(fp)

        while emitted < count:
            loop = self.loops[loop_cursor]
            loop_cursor = (loop_cursor + 1) % len(self.loops)
            iterations = max(1, round(rng.expovariate(
                1.0 / loop.mean_iterations)))
            for iteration in range(iterations):
                # Refresh the loop's pointer register with a commutative
                # address computation (base + scaled index).  Besides being
                # what compiled loops do, this lets the pointer migrate
                # between register subsets on a WSRS machine instead of
                # pinning every address calculation to one bicluster.
                pointer = loop.pointer
                yield TraceInstruction(
                    OpClass.IALU, dest=pointer, src1=loop.induction,
                    src2=pick_recent(fp=False),
                    pc=loop.blocks[0].pcs[0] - 4, commutative=True)
                note_write(pointer, fp=False)
                emitted += 1
                if emitted >= count:
                    return
                for block in loop.blocks:
                    for op, pc in zip(block.ops, block.pcs):
                        inst = self._realize(
                            op, pc, loop, rng, next_int_temp, next_fp_temp,
                            note_write, pick_recent, pick_second_operand)
                        yield inst
                        emitted += 1
                        if emitted >= count:
                            return
                    # Block-terminating branch (conditional, monadic).
                    if block.is_loop_back:
                        taken = iteration + 1 < iterations
                    else:
                        taken = rng.random() < block.taken_bias
                    yield TraceInstruction(
                        OpClass.BRANCH, dest=None,
                        src1=pick_condition(), src2=None,
                        pc=block.branch_pc, taken=taken)
                    emitted += 1
                    if emitted >= count:
                        return
                # Per-iteration induction updates: two monadic
                # add-immediate chains carried across iterations (real
                # loops advance several index variables, which also keeps
                # several independent dataflow lineages alive).
                for offset, induction in enumerate(
                        (loop.induction, loop.induction2)):
                    yield TraceInstruction(
                        OpClass.IALU, dest=induction, src1=induction,
                        pc=block.branch_pc + 4 + 4 * offset, taken=False)
                    note_write(induction, fp=False)
                    emitted += 1
                    if emitted >= count:
                        return

    def _realize(self, op: OpClass, pc: int, loop: _Loop,
                 rng: random.Random, next_int_temp, next_fp_temp,
                 note_write, pick_recent, pick_second_operand,
                 ) -> TraceInstruction:
        profile = self.profile
        if op == OpClass.LOAD:
            if profile.pointer_chase and rng.random() < 0.15:
                # Serial chase: the loaded value is the next address.
                pointer = loop.pointer
                addr = (loop.streams[0].base
                        + rng.randrange(loop.streams[0].size) & ~7)
                inst = TraceInstruction(op, dest=pointer, src1=pointer,
                                        pc=pc, addr=addr)
                note_write(pointer, fp=False)
                return inst
            stream = loop.streams[rng.getrandbits(1)]
            fp_dest = rng.random() < profile.frac_fp_load
            dest = next_fp_temp() if fp_dest else next_int_temp()
            bases = (loop.induction, loop.induction2, loop.pointer)
            base = bases[rng.randrange(3)]
            inst = TraceInstruction(op, dest=dest, src1=base, pc=pc,
                                    addr=stream.next_address())
            note_write(dest, fp=fp_dest)
            return inst
        if op == OpClass.STORE:
            stream = loop.streams[rng.getrandbits(1)]
            fp_data = profile.frac_fp_load > 0 and rng.random() < 0.5
            data = pick_recent(fp=fp_data)
            base = loop.induction if rng.getrandbits(1) else loop.induction2
            return TraceInstruction(op, src1=base, src2=data,
                                    pc=pc, addr=stream.next_address())
        if op in (OpClass.FPADD, OpClass.FPMUL, OpClass.FPDIV):
            dest = next_fp_temp()
            src1 = pick_recent(fp=True)
            src2 = pick_second_operand(fp=True)
            inst = TraceInstruction(
                op, dest=dest, src1=src1, src2=src2, pc=pc,
                commutative=op != OpClass.FPDIV)
            note_write(dest, fp=True)
            return inst
        if op == OpClass.IMULDIV:
            dest = next_int_temp()
            inst = TraceInstruction(op, dest=dest,
                                    src1=pick_recent(fp=False),
                                    src2=pick_second_operand(fp=False),
                                    pc=pc, commutative=False)
            note_write(dest, fp=False)
            return inst
        # Integer ALU: monadic (reg + immediate) or dyadic.
        dest = next_int_temp()
        if rng.random() < profile.frac_alu_monadic:
            inst = TraceInstruction(op, dest=dest,
                                    src1=pick_recent(fp=False), pc=pc)
        else:
            commutative = rng.random() < profile.frac_commutative
            inst = TraceInstruction(op, dest=dest,
                                    src1=pick_recent(fp=False),
                                    src2=pick_second_operand(fp=False),
                                    pc=pc, commutative=commutative)
        note_write(dest, fp=False)
        return inst



def _assert_same_stream(profile: WorkloadProfile, seed: int,
                        length: int) -> None:
    fast = trace_fields(
        SyntheticTraceGenerator(profile, seed).generate(length))
    oracle = trace_fields(_OracleGenerator(profile, seed).generate(length))
    assert len(fast) == len(oracle) == max(0, length)
    for position, (got, want) in enumerate(zip(fast, oracle)):
        assert got == want, f"instruction {position} differs"


_fraction = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def profiles(draw) -> WorkloadProfile:
    """Random profiles that validate and leave enough temp registers."""
    return WorkloadProfile(
        name="drawn",
        kind=draw(st.sampled_from(["int", "fp"])),
        frac_load=draw(st.floats(0.0, 0.35)),
        frac_store=draw(st.floats(0.0, 0.15)),
        frac_branch=draw(st.floats(0.0, 0.25)),
        frac_fp=draw(st.floats(0.0, 0.2)),
        frac_fpmul=draw(st.floats(0.0, 0.6)),
        frac_fpdiv=draw(st.floats(0.0, 0.3)),
        frac_imuldiv=draw(st.floats(0.0, 0.04)),
        frac_alu_monadic=draw(_fraction),
        frac_commutative=draw(_fraction),
        invariant_operand_prob=draw(_fraction),
        num_int_invariants=draw(st.integers(0, 8)),
        num_fp_invariants=draw(st.integers(0, 8)),
        dep_locality=draw(_fraction),
        dep_window=draw(st.integers(1, 32)),
        temp_pool_int=draw(st.integers(4, 40)),
        temp_pool_fp=draw(st.integers(4, 24)),
        num_loops=draw(st.integers(1, 8)),
        blocks_per_loop=draw(st.integers(1, 4)),
        mean_iterations=draw(st.integers(1, 200)),
        internal_branch_bias=draw(_fraction),
        branch_bias_spread=draw(st.floats(0.0, 0.3)),
        ws_bytes=draw(st.integers(1, 1 << 22)),
        stride_bytes=draw(st.integers(1, 64)),
        frac_random_access=draw(_fraction),
        pointer_chase=draw(st.booleans()),
        frac_fp_load=draw(st.one_of(st.just(0.0), _fraction)),
    )


_lengths = st.one_of(st.sampled_from([0, 1]), st.integers(2, 3_000),
                     st.integers(20_001, 22_000))


@settings(max_examples=40, deadline=None)
@given(profile=profiles(), seed=st.integers(0, 1 << 20), length=_lengths)
def test_walk_matches_oracle_on_random_profiles(profile, seed, length):
    _assert_same_stream(profile, seed, length)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_walk_matches_oracle_on_every_calibrated_profile(name):
    for seed, length in ((1, 37), (5, 1), (1001, 20_192)):
        _assert_same_stream(PROFILES[name], seed, length)


def test_length_ending_mid_block_is_a_prefix():
    profile = PROFILES["gzip"]
    ops = SyntheticTraceGenerator(profile, 3).loops[0].blocks[0].ops
    assert len(ops) >= 2
    # The pointer refresh, then all but the last op of the first block.
    cut = len(ops)
    _assert_same_stream(profile, 3, cut)
    # A generator's address streams keep their state, so each stream
    # comes from a fresh generator.
    full = trace_fields(SyntheticTraceGenerator(profile, 3).generate(400))
    head = trace_fields(SyntheticTraceGenerator(profile, 3).generate(cut))
    assert head == full[:cut]

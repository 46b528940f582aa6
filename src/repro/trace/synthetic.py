"""Synthetic SPEC-shaped trace generation.

The paper simulates 10 M-instruction slices of twelve SPEC CPU2000
benchmarks compiled for SPARC.  Those binaries (and a SPARC front end) are
not reproducible here, so this module synthesises dynamic instruction
streams whose *register dataflow shape* - the only thing the evaluated
mechanisms can see - is controlled per benchmark:

* instruction mix (loads, stores, branches, integer/FP arithmetic);
* monadic/dyadic structure and the commutativity of dyadic operations
  (the degrees of freedom of section 3.3);
* dependency distance (how far back the producers of operands are),
  which sets the available ILP;
* *invariant* register operands - the compiler-kept loop constants the
  paper singles out as a source of WSRS workload unbalancing;
* loop/branch structure with per-site biases, so the 2Bc-gskew predictor
  mispredicts at realistic, benchmark-dependent rates;
* memory footprints and access patterns (strided sweeps, random access,
  serial pointer chasing) driving the Table 3 hierarchy.

The generator builds a static *program skeleton* - loops made of basic
blocks with fixed per-block operation sequences and PCs - and then walks
it, choosing register operands dynamically from recent producers,
invariants and induction variables.  All randomness derives from one seed,
so a (profile, seed, length) triple is a fully reproducible workload, and
every simulated configuration consumes an identical stream.

See :mod:`repro.trace.profiles` for the twelve calibrated profiles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from repro.errors import TraceError
from repro.trace.model import OpClass, TraceInstruction

#: Version of the generation algorithm.  Any change that alters the
#: instruction stream produced for a given (profile, seed, length) - new
#: fields, different RNG consumption order, skeleton changes - must bump
#: this; it is part of the trace-cache key (:mod:`repro.trace.cache`), so
#: bumping it invalidates every cached trace, in memory and on disk.
GENERATOR_VERSION = 1


@dataclass(frozen=True)
class WorkloadProfile:
    """Tunable description of one synthetic workload.

    The instruction mix fields are fractions of all instructions;
    whatever they leave over becomes plain integer ALU work.  Dataflow
    and memory fields are documented inline.
    """

    name: str
    kind: str  # "int" or "fp"
    description: str = ""

    # -- instruction mix -------------------------------------------------
    frac_load: float = 0.25
    frac_store: float = 0.10
    frac_branch: float = 0.15
    frac_fp: float = 0.0       # FP arithmetic fraction (FPADD/FPMUL/FPDIV)
    frac_fpmul: float = 0.4    # share of FP arithmetic that multiplies
    frac_fpdiv: float = 0.02   # share of FP arithmetic that divides
    frac_imuldiv: float = 0.01  # integer mul/div fraction of *all* insts

    # -- register dataflow ---------------------------------------------
    frac_alu_monadic: float = 0.45   # of integer ALU ops (reg+imm forms)
    frac_commutative: float = 0.6    # of dyadic integer ALU ops
    invariant_operand_prob: float = 0.2  # second operand is an invariant
    num_int_invariants: int = 6
    num_fp_invariants: int = 4
    dep_locality: float = 0.45  # probability of a tight producer edge
    dep_window: int = 12        # how many recent producers stay visible
    temp_pool_int: int = 24
    temp_pool_fp: int = 16

    # -- control structure -----------------------------------------------
    num_loops: int = 6
    blocks_per_loop: int = 3
    mean_iterations: int = 40
    internal_branch_bias: float = 0.85  # mean per-site taken probability
    branch_bias_spread: float = 0.12

    # -- memory behaviour --------------------------------------------------
    ws_bytes: int = 1 << 20        # touched working set
    stride_bytes: int = 8          # stride of sequential streams
    frac_random_access: float = 0.1  # loads/stores hitting random addresses
    pointer_chase: bool = False    # serial dependent random loads
    frac_fp_load: float = 0.0      # loads producing an FP destination

    def validate(self) -> None:
        mix = self.frac_load + self.frac_store + self.frac_branch \
            + self.frac_fp + self.frac_imuldiv
        if mix >= 1.0:
            raise TraceError(f"profile {self.name}: mix sums to {mix} >= 1")
        for name in ("frac_load", "frac_store", "frac_branch", "frac_fp",
                     "frac_imuldiv", "frac_alu_monadic", "frac_commutative",
                     "invariant_operand_prob", "dep_locality",
                     "internal_branch_bias", "frac_random_access",
                     "frac_fp_load"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise TraceError(f"profile {self.name}: {name}={value} "
                                 f"outside [0, 1]")
        if self.kind not in ("int", "fp"):
            raise TraceError(f"profile {self.name}: bad kind {self.kind}")


# -- register-space layout ----------------------------------------------

#: Integer logical registers available to traces (4 resident SPARC
#: windows, section 5.1.1) and FP logical registers.
NUM_INT_LOGICAL = 80
NUM_FP_LOGICAL = 32


class _RegisterPlan:
    """Static assignment of logical registers to generator roles."""

    def __init__(self, profile: WorkloadProfile) -> None:
        next_int = 1  # r0 is the architectural zero, never a dest
        self.int_invariants = list(
            range(next_int, next_int + profile.num_int_invariants))
        next_int += profile.num_int_invariants
        self.inductions = list(
            range(next_int, next_int + 2 * profile.num_loops))
        next_int += 2 * profile.num_loops
        self.pointers = list(range(next_int, next_int + profile.num_loops))
        next_int += profile.num_loops
        pool = min(profile.temp_pool_int, NUM_INT_LOGICAL - next_int)
        if pool < 4:
            raise TraceError("register plan leaves too few integer temps")
        self.int_temps = list(range(next_int, next_int + pool))

        next_fp = NUM_INT_LOGICAL
        self.fp_invariants = list(
            range(next_fp, next_fp + profile.num_fp_invariants))
        next_fp += profile.num_fp_invariants
        pool = min(profile.temp_pool_fp,
                   NUM_INT_LOGICAL + NUM_FP_LOGICAL - next_fp)
        if pool < 4:
            raise TraceError("register plan leaves too few FP temps")
        self.fp_temps = list(range(next_fp, next_fp + pool))


class _AddressStream:
    """One memory reference stream."""

    __slots__ = ("base", "size", "stride", "random_frac", "rng", "_offset")

    def __init__(self, base: int, size: int, stride: int,
                 random_frac: float, rng: random.Random) -> None:
        self.base = base
        self.size = max(size, 64)
        self.stride = stride
        self.random_frac = random_frac
        self.rng = rng
        self._offset = 0

    def next_address(self) -> int:
        if self.random_frac and self.rng.random() < self.random_frac:
            return self.base + self.rng.randrange(self.size) & ~7
        addr = self.base + self._offset
        self._offset = (self._offset + self.stride) % self.size
        return addr


class _Block:
    """A static basic block: a fixed operation sequence plus a branch.

    ``taken_bias`` is the probability the block's terminating branch is
    taken.  Internal (if-like) branch sites are biased toward taken or
    not-taken with equal probability, as in compiled code; loop-back
    branches are taken until the loop exits.
    """

    __slots__ = ("ops", "pcs", "branch_pc", "taken_bias", "is_loop_back")

    def __init__(self, ops: List[OpClass], base_pc: int, taken_bias: float,
                 is_loop_back: bool) -> None:
        self.ops = ops
        self.pcs = [base_pc + 4 * i for i in range(len(ops))]
        self.branch_pc = base_pc + 4 * len(ops)
        self.taken_bias = taken_bias
        self.is_loop_back = is_loop_back


class _Loop:
    __slots__ = ("blocks", "induction", "induction2", "pointer", "streams",
                 "mean_iterations")

    def __init__(self, blocks: List[_Block], induction: int,
                 induction2: int, pointer: int,
                 streams: List[_AddressStream],
                 mean_iterations: int) -> None:
        self.blocks = blocks
        self.induction = induction
        self.induction2 = induction2
        self.pointer = pointer
        self.streams = streams
        self.mean_iterations = mean_iterations


class SyntheticTraceGenerator:
    """Generates :class:`TraceInstruction` streams for one profile."""

    def __init__(self, profile: WorkloadProfile, seed: int = 1) -> None:
        profile.validate()
        self.profile = profile
        self.seed = seed
        self._build_rng = random.Random((seed << 16) ^ 0x5EED)
        self.plan = _RegisterPlan(profile)
        self.loops = self._build_loops()

    # -- static skeleton -----------------------------------------------

    def _sample_ops(self, count: int, rng: random.Random) -> List[OpClass]:
        """Draw a block's non-branch operation sequence from the mix."""
        profile = self.profile
        scale = 1.0 - profile.frac_branch
        weights = [
            (OpClass.LOAD, profile.frac_load / scale),
            (OpClass.STORE, profile.frac_store / scale),
            (OpClass.FPADD, profile.frac_fp
             * (1 - profile.frac_fpmul - profile.frac_fpdiv) / scale),
            (OpClass.FPMUL, profile.frac_fp * profile.frac_fpmul / scale),
            (OpClass.FPDIV, profile.frac_fp * profile.frac_fpdiv / scale),
            (OpClass.IMULDIV, profile.frac_imuldiv / scale),
        ]
        ops = []
        for _ in range(count):
            draw = rng.random()
            acc = 0.0
            chosen = OpClass.IALU
            for op, weight in weights:
                acc += weight
                if draw < acc:
                    chosen = op
                    break
            ops.append(chosen)
        return ops

    def _build_loops(self) -> List[_Loop]:
        profile = self.profile
        rng = self._build_rng
        block_len = max(2, round(1.0 / max(profile.frac_branch, 0.02)) - 1)
        loops: List[_Loop] = []
        next_pc = 0x1000
        region_base = 0x10000
        region_size = max(profile.ws_bytes // max(profile.num_loops, 1), 4096)
        for loop_index in range(profile.num_loops):
            blocks: List[_Block] = []
            for block_index in range(profile.blocks_per_loop):
                length = max(1, round(rng.gauss(block_len, block_len * 0.3)))
                ops = self._sample_ops(length, rng)
                is_loop_back = block_index == profile.blocks_per_loop - 1
                bias = min(0.99, max(0.5, rng.gauss(
                    profile.internal_branch_bias,
                    profile.branch_bias_spread)))
                if rng.getrandbits(1):
                    bias = 1.0 - bias  # not-taken-biased site
                blocks.append(_Block(ops, next_pc, bias, is_loop_back))
                next_pc += 4 * (len(ops) + 1)
            streams = [
                _AddressStream(
                    base=region_base + loop_index * region_size,
                    size=region_size,
                    stride=profile.stride_bytes,
                    random_frac=profile.frac_random_access,
                    rng=random.Random((self.seed << 8)
                                      ^ (loop_index * 7919)),
                )
                for _ in range(2)
            ]
            loops.append(_Loop(
                blocks=blocks,
                induction=self.plan.inductions[2 * loop_index],
                induction2=self.plan.inductions[2 * loop_index + 1],
                pointer=self.plan.pointers[loop_index],
                streams=streams,
                mean_iterations=max(2, round(rng.gauss(
                    profile.mean_iterations,
                    profile.mean_iterations * 0.4))),
            ))
        return loops

    # -- dynamic walk -----------------------------------------------------

    def generate(self, count: int) -> Iterator[TraceInstruction]:
        """Yield exactly ``count`` dynamic instructions.

        Every draw comes from one ``random.Random(seed)`` (plus the
        per-loop address streams' own RNGs), in this order:

        * per loop visit: one ``expovariate`` for the iteration count;
        * per iteration: the pointer refresh picks one producer;
        * per load: a pointer-chasing profile first draws the 0.15 chase
          test (a chase then draws its address and nothing else);
          otherwise the stream bit, the FP-destination test, the base
          register (below 3), then the stream's address;
        * per store: the stream bit, the FP-data test (only when the
          profile has FP loads), the data producer, the base bit, then
          the stream's address;
        * per integer ALU op: the monadic test; a dyadic op then draws
          the commutativity test, its first producer, its second operand;
        * per multiply/divide or FP op: first producer, second operand;
        * per block branch: one taken draw, except on the loop-back
          branch; the two induction updates draw nothing.

        A producer pick draws the locality test and, when it misses, an
        index into the producer window.  A second operand draws the
        invariant test (only when invariants exist) and then an
        invariant index or a producer pick.  Every index is the
        ``getrandbits`` rejection loop ``randrange(n)`` runs, so the
        draws match it call for call.  The walk never looks ahead, so
        the first ``n`` instructions of ``generate(m)`` are
        ``generate(n)`` for every ``m >= n``.  Changing this order
        changes every stream and must bump :data:`GENERATOR_VERSION`;
        ``tests/test_synthetic_oracle.py`` pins it against the original
        walk.  The address streams belong to the skeleton and advance
        with every call, so each reproducible stream needs a fresh
        generator.
        """
        plan = self.plan
        loops = self.loops
        profile = self.profile
        rng = random.Random(self.seed)
        random_ = rng.random
        getrandbits = rng.getrandbits
        make = TraceInstruction
        IALU, LOAD, STORE = OpClass.IALU, OpClass.LOAD, OpClass.STORE
        IMULDIV, BRANCH, FPDIV = OpClass.IMULDIV, OpClass.BRANCH, \
            OpClass.FPDIV
        window = profile.dep_window
        locality = profile.dep_locality
        invariant_prob = profile.invariant_operand_prob
        pointer_chase = profile.pointer_chase
        frac_fp_load = profile.frac_fp_load
        fp_stores = frac_fp_load > 0
        frac_monadic = profile.frac_alu_monadic
        frac_commutative = profile.frac_commutative
        int_temps, fp_temps = plan.int_temps, plan.fp_temps
        int_invariants, fp_invariants = plan.int_invariants, \
            plan.fp_invariants
        recent_int: List[int] = list(int_temps[:4])
        recent_fp: List[int] = list(fp_temps[:4])

        def below(n: int) -> int:
            # rng.randrange(n), draw for draw.
            bits = n.bit_length()
            value = getrandbits(bits)
            while value >= n:
                value = getrandbits(bits)
            return value

        def pick_recent(recent: List[int]) -> int:
            # Two-mode producer distance: with probability dep_locality
            # the operand is the newest value (a tight, latency-critical
            # edge - compare->branch, address->load, accumulator updates);
            # otherwise it is drawn uniformly from the producer window
            # (wide, parallel dataflow).  Real code exhibits exactly this
            # bimodal reuse-distance shape.
            if random_() < locality:
                return recent[-1]
            return recent[below(len(recent))]

        def pick_second(recent: List[int], invariants: List[int]) -> int:
            if invariants and random_() < invariant_prob:
                return invariants[below(len(invariants))]
            return pick_recent(recent)

        int_cursor = fp_cursor = 0
        emitted = 0
        loop_cursor = 0
        while emitted < count:
            loop = loops[loop_cursor]
            loop_cursor = (loop_cursor + 1) % len(loops)
            iterations = max(1, round(rng.expovariate(
                1.0 / loop.mean_iterations)))
            pointer = loop.pointer
            induction, induction2 = loop.induction, loop.induction2
            bases = (induction, induction2, pointer)
            streams = loop.streams
            blocks = loop.blocks
            refresh_pc = blocks[0].pcs[0] - 4
            update_pc = blocks[-1].branch_pc + 4
            for iteration in range(iterations):
                # Refresh the loop's pointer register with a commutative
                # address computation (base + scaled index).  Besides being
                # what compiled loops do, this lets the pointer migrate
                # between register subsets on a WSRS machine instead of
                # pinning every address calculation to one bicluster.
                yield make(IALU, pointer, induction,
                           pick_recent(recent_int), refresh_pc, False, 0,
                           True)
                if pointer in recent_int:
                    recent_int.remove(pointer)
                recent_int.append(pointer)
                if len(recent_int) > window:
                    del recent_int[0]
                emitted += 1
                if emitted >= count:
                    return
                for block in blocks:
                    for op, pc in zip(block.ops, block.pcs):
                        src2 = None
                        addr = 0
                        commutative = False
                        recent = recent_int
                        if op is IALU:
                            # Monadic (reg + immediate) or dyadic.
                            dest = int_temps[int_cursor]
                            int_cursor = (int_cursor + 1) % len(int_temps)
                            if random_() < frac_monadic:
                                src1 = pick_recent(recent_int)
                            else:
                                commutative = random_() < frac_commutative
                                src1 = pick_recent(recent_int)
                                src2 = pick_second(recent_int,
                                                   int_invariants)
                        elif op is LOAD:
                            if pointer_chase and random_() < 0.15:
                                # Serial chase: the loaded value is the
                                # next address.
                                dest = src1 = pointer
                                addr = streams[0].base \
                                    + below(streams[0].size) & ~7
                            else:
                                stream = streams[getrandbits(1)]
                                if random_() < frac_fp_load:
                                    dest = fp_temps[fp_cursor]
                                    fp_cursor = (fp_cursor + 1) \
                                        % len(fp_temps)
                                    recent = recent_fp
                                else:
                                    dest = int_temps[int_cursor]
                                    int_cursor = (int_cursor + 1) \
                                        % len(int_temps)
                                src1 = bases[below(3)]
                                addr = stream.next_address()
                        elif op is STORE:
                            stream = streams[getrandbits(1)]
                            src2 = pick_recent(
                                recent_fp if fp_stores and random_() < 0.5
                                else recent_int)
                            src1 = induction if getrandbits(1) \
                                else induction2
                            yield make(STORE, None, src1, src2, pc, False,
                                       stream.next_address(), False)
                            emitted += 1
                            if emitted >= count:
                                return
                            continue
                        elif op is IMULDIV:
                            dest = int_temps[int_cursor]
                            int_cursor = (int_cursor + 1) % len(int_temps)
                            src1 = pick_recent(recent_int)
                            src2 = pick_second(recent_int, int_invariants)
                        else:  # FPADD, FPMUL, FPDIV
                            dest = fp_temps[fp_cursor]
                            fp_cursor = (fp_cursor + 1) % len(fp_temps)
                            recent = recent_fp
                            src1 = pick_recent(recent_fp)
                            src2 = pick_second(recent_fp, fp_invariants)
                            commutative = op is not FPDIV
                        yield make(op, dest, src1, src2, pc, False, addr,
                                   commutative)
                        if dest in recent:
                            recent.remove(dest)
                        recent.append(dest)
                        if len(recent) > window:
                            del recent[0]
                        emitted += 1
                        if emitted >= count:
                            return
                    # Block-terminating branch (conditional, monadic).
                    # Branch conditions compare values computed a few
                    # instructions earlier (the compiler schedules
                    # compares early), so read from the old end of the
                    # producer window: the branch resolves as soon as it
                    # reaches the issue stage instead of tailing the
                    # newest dependence chain.
                    if block.is_loop_back:
                        taken = iteration + 1 < iterations
                    else:
                        taken = random_() < block.taken_bias
                    yield make(BRANCH, None,
                               recent_int[min(1, len(recent_int) - 1)],
                               None, block.branch_pc, taken, 0, False)
                    emitted += 1
                    if emitted >= count:
                        return
                # Per-iteration induction updates: two monadic
                # add-immediate chains carried across iterations (real
                # loops advance several index variables, which also keeps
                # several independent dataflow lineages alive).
                for offset, reg in enumerate((induction, induction2)):
                    yield make(IALU, reg, reg, None, update_pc + 4 * offset,
                               False, 0, False)
                    if reg in recent_int:
                        recent_int.remove(reg)
                    recent_int.append(reg)
                    if len(recent_int) > window:
                        del recent_int[0]
                    emitted += 1
                    if emitted >= count:
                        return


def generate_trace(profile: WorkloadProfile, count: int,
                   seed: int = 1) -> Iterator[TraceInstruction]:
    """Convenience: a fresh generator's stream of ``count`` instructions."""
    return SyntheticTraceGenerator(profile, seed).generate(count)

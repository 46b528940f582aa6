"""Shared test fixtures and trace-building helpers."""

from __future__ import annotations

import random
from typing import Iterable, List, Optional

import pytest

from repro.config import MachineConfig, baseline_rr_256
from repro.trace.model import OpClass, TraceInstruction


def ialu(dest: int, src1: Optional[int] = None, src2: Optional[int] = None,
         pc: int = 0, commutative: bool = False) -> TraceInstruction:
    """Shorthand for a 1-cycle integer ALU instruction."""
    return TraceInstruction(OpClass.IALU, dest=dest, src1=src1, src2=src2,
                            pc=pc, commutative=commutative)


def load(dest: int, base: int, addr: int = 0x1000,
         pc: int = 0) -> TraceInstruction:
    return TraceInstruction(OpClass.LOAD, dest=dest, src1=base, pc=pc,
                            addr=addr)


def store(base: int, data: int, addr: int = 0x1000,
          pc: int = 0) -> TraceInstruction:
    return TraceInstruction(OpClass.STORE, src1=base, src2=data, pc=pc,
                            addr=addr)


def branch(src: int, taken: bool, pc: int = 0x100) -> TraceInstruction:
    return TraceInstruction(OpClass.BRANCH, src1=src, pc=pc, taken=taken)


def random_trace(count: int, seed: int = 0, num_int: int = 32,
                 num_fp: int = 16, int_base: int = 0,
                 fp_base: int = 80) -> List[TraceInstruction]:
    """A structurally valid random trace over small register ranges.

    Register indices stay inside the default machine configuration's
    80-integer + 32-FP flat space.
    """
    rng = random.Random(seed)
    int_regs = list(range(int_base + 1, int_base + num_int))
    fp_regs = list(range(fp_base, fp_base + num_fp))
    trace: List[TraceInstruction] = []
    for position in range(count):
        draw = rng.random()
        pc = 0x1000 + 4 * (position % 97)
        if draw < 0.12:
            trace.append(branch(rng.choice(int_regs),
                                rng.random() < 0.7, pc=pc))
        elif draw < 0.32:
            trace.append(load(rng.choice(int_regs), rng.choice(int_regs),
                              addr=rng.randrange(0, 1 << 16) & ~7, pc=pc))
        elif draw < 0.42:
            trace.append(store(rng.choice(int_regs), rng.choice(int_regs),
                               addr=rng.randrange(0, 1 << 16) & ~7, pc=pc))
        elif draw < 0.55:
            trace.append(TraceInstruction(
                OpClass.FPADD, dest=rng.choice(fp_regs),
                src1=rng.choice(fp_regs), src2=rng.choice(fp_regs),
                pc=pc, commutative=True))
        elif draw < 0.70:
            trace.append(ialu(rng.choice(int_regs), rng.choice(int_regs),
                              pc=pc))
        else:
            trace.append(ialu(rng.choice(int_regs), rng.choice(int_regs),
                              rng.choice(int_regs), pc=pc,
                              commutative=rng.random() < 0.5))
    return trace


def trace_fields(instructions: Iterable[TraceInstruction]) -> List[tuple]:
    """Every field of every instruction, each with its type: an int
    where an :class:`OpClass` belongs, or 1 for True, would pickle to
    different bits."""
    names = ("op", "dest", "src1", "src2", "pc", "taken", "addr",
             "commutative")
    return [tuple((getattr(inst, name), type(getattr(inst, name)))
                  for name in names) for inst in instructions]


@pytest.fixture
def base_config() -> MachineConfig:
    return baseline_rr_256()

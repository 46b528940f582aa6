"""Idealised instruction-delivery front end.

Section 5.2 of the paper: "the front-end stages in the pipeline, up to the
rename stage, deliver eight instructions/microoperations per cycle at a
sustained rate" - fetch-bandwidth artefacts are deliberately ignored.
Branch *direction* prediction is realistic (the 512 Kbit 2Bc-gskew);
branch targets are assumed perfectly predicted.

This module models exactly that contract: :class:`FrontEnd` wraps a trace
iterator and a direction predictor, tags every branch with whether it was
mispredicted, and leaves all *timing* (rename stalls, misprediction
bubbles) to the core - the processor stalls rename until
``resolution + minimum_penalty`` when it drains a mispredicted branch.

The predictor is trained immediately at fetch, in fetch order.  Because
wrong-path instructions are not simulated, this is equivalent to in-order
update at retirement and keeps the predictor state deterministic.

It follows that the direction predicted for branch *k* depends only on
the trace and the predictor kind, never on the machine fetching it.
The experiment engine relies on this invariant: every cell on a cached
trace gets a :class:`repro.trace.cache.BranchReplay` as its predictor,
which replays the trace entry's memo of predicted directions (see
:mod:`repro.trace.cache`), so the real predictor resolves each branch
once per trace rather than once per cell.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.frontend.predictors import BranchPredictor, make_predictor
from repro.trace.model import TraceInstruction


class FetchedInstruction:
    """A trace instruction annotated with its prediction outcome."""

    __slots__ = ("inst", "mispredicted")

    def __init__(self, inst: TraceInstruction, mispredicted: bool) -> None:
        self.inst = inst
        self.mispredicted = mispredicted


class FrontEnd:
    """Wraps a trace with branch prediction and delivery accounting.

    Parameters
    ----------
    trace:
        Iterable of :class:`TraceInstruction`.
    predictor:
        A :class:`BranchPredictor`; defaults to the paper's 2Bc-gskew.
    """

    def __init__(
        self,
        trace: Iterable[TraceInstruction],
        predictor: Optional[BranchPredictor] = None,
    ) -> None:
        self._trace: Iterator[TraceInstruction] = iter(trace)
        self.predictor = predictor or make_predictor("2bcgskew")
        self.branches = 0
        self.mispredictions = 0
        self.delivered = 0
        self._exhausted = False
        self._pending: Optional[FetchedInstruction] = None

    # -- delivery ---------------------------------------------------------

    def _fetch_one(self) -> Optional[FetchedInstruction]:
        try:
            inst = next(self._trace)
        except StopIteration:
            self._exhausted = True
            return None
        mispredicted = False
        if inst.is_branch:
            self.branches += 1
            predicted = self.predictor.resolve(inst.pc, inst.taken)
            mispredicted = predicted != inst.taken
            if mispredicted:
                self.mispredictions += 1
        return FetchedInstruction(inst, mispredicted)

    def peek(self) -> Optional[FetchedInstruction]:
        """The next instruction without consuming it (None at trace end)."""
        if self._pending is None and not self._exhausted:
            self._pending = self._fetch_one()
        return self._pending

    def pop(self) -> Optional[FetchedInstruction]:
        """Consume and return the next instruction (None at trace end)."""
        fetched = self.peek()
        if fetched is not None:
            self._pending = None
            self.delivered += 1
        return fetched

    @property
    def exhausted(self) -> bool:
        """True once the trace has been fully delivered."""
        return self._exhausted and self._pending is None

    # -- statistics ---------------------------------------------------------

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions per executed branch (0.0 when no branches)."""
        if not self.branches:
            return 0.0
        return self.mispredictions / self.branches

"""Conditional branch predictors.

The paper simulates a very large (512 Kbit) 2Bc-gskew predictor, the design
of the cancelled Alpha EV8 [16, 17].  That predictor lives in
:mod:`repro.frontend.gskew`; this module provides the building blocks
(saturating counters, a global history register) plus the simpler reference
predictors used in tests and ablations: always-taken, bimodal, and gshare.

All predictors share one interface: :meth:`BranchPredictor.predict` returns
the predicted direction for a branch at address ``pc``, and
:meth:`BranchPredictor.update` trains the predictor with the resolved
outcome.  Callers must invoke ``update`` exactly once per predicted branch,
in prediction order.
"""

from __future__ import annotations


class SaturatingCounterTable:
    """A table of n-bit saturating up/down counters.

    Counters sit in ``[0, 2**bits - 1]``; the MSB is the prediction.
    They are stored one per byte, so ``bits`` is at most 8: a 2^16-entry
    bank costs 64 KB rather than the 512 KB a list of ints would.
    """

    def __init__(self, entries: int, bits: int = 2,
                 initial: int | None = None) -> None:
        if entries < 1 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if bits < 1:
            raise ValueError("counters need at least one bit")
        if bits > 8:
            raise ValueError("counters are stored one per byte; "
                             "bits must be at most 8")
        self.entries = entries
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self.threshold = 1 << (bits - 1)
        if initial is None:
            initial = self.threshold - 1  # weakly not-taken
        self.counters = bytearray([initial]) * entries
        self._mask = entries - 1

    def index(self, value: int) -> int:
        return value & self._mask

    def predict(self, index: int) -> bool:
        return self.counters[index & self._mask] >= self.threshold

    def update(self, index: int, taken: bool) -> None:
        index &= self._mask
        count = self.counters[index]
        if taken:
            if count < self.max_value:
                self.counters[index] = count + 1
        elif count > 0:
            self.counters[index] = count - 1

    def storage_bits(self) -> int:
        return self.entries * self.bits


class GlobalHistory:
    """A global branch-direction history shift register."""

    def __init__(self, length: int) -> None:
        if length < 0:
            raise ValueError("history length must be >= 0")
        self.length = length
        self.value = 0
        self._mask = (1 << length) - 1 if length else 0

    def push(self, taken: bool) -> None:
        if self.length:
            self.value = ((self.value << 1) | int(taken)) & self._mask

    def bits(self, count: int) -> int:
        """The ``count`` most recent outcomes (low bits most recent)."""
        if count >= self.length:
            return self.value
        return self.value & ((1 << count) - 1)


class BranchPredictor:
    """Interface for conditional branch predictors."""

    name = "base"

    def predict(self, pc: int) -> bool:
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        raise NotImplementedError

    def resolve(self, pc: int, taken: bool) -> bool:
        """Predict and train in one call; returns the prediction.

        Equivalent to ``predict`` followed by ``update`` with no state
        change in between.  Predictors whose two halves share expensive
        indexing work (the 2Bc-gskew recomputes all four bank indices)
        override this to do that work once.
        """
        predicted = self.predict(pc)
        self.update(pc, taken)
        return predicted

    def storage_bits(self) -> int:
        """Total predictor state, for sizing comparisons."""
        return 0


class AlwaysTakenPredictor(BranchPredictor):
    """Static always-taken baseline (used in tests)."""

    name = "always-taken"

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        return None


class BimodalPredictor(BranchPredictor):
    """Per-address 2-bit counters (Smith predictor)."""

    name = "bimodal"

    def __init__(self, entries: int = 1 << 14) -> None:
        self.table = SaturatingCounterTable(entries)

    def _index(self, pc: int) -> int:
        return self.table.index(pc >> 2)

    def predict(self, pc: int) -> bool:
        return self.table.predict(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        self.table.update(self._index(pc), taken)

    def storage_bits(self) -> int:
        return self.table.storage_bits()


class GsharePredictor(BranchPredictor):
    """Global-history XOR predictor (McFarling)."""

    name = "gshare"

    def __init__(self, entries: int = 1 << 14,
                 history_length: int = 12) -> None:
        self.table = SaturatingCounterTable(entries)
        self.history = GlobalHistory(history_length)

    def _index(self, pc: int) -> int:
        return self.table.index((pc >> 2) ^ self.history.value)

    def predict(self, pc: int) -> bool:
        return self.table.predict(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        self.table.update(self._index(pc), taken)
        self.history.push(taken)

    def storage_bits(self) -> int:
        return self.table.storage_bits()


def make_predictor(kind: str, **kwargs) -> BranchPredictor:
    """Factory used by the simulator configuration layer."""
    from repro.frontend.gskew import TwoBcGskewPredictor

    kinds = {
        "always-taken": AlwaysTakenPredictor,
        "bimodal": BimodalPredictor,
        "gshare": GsharePredictor,
        "2bcgskew": TwoBcGskewPredictor,
    }
    try:
        cls = kinds[kind]
    except KeyError:
        raise ValueError(f"unknown predictor kind {kind!r}; choose from "
                         f"{sorted(kinds)}") from None
    return cls(**kwargs)

"""Tests for the basic branch predictors (repro.frontend.predictors)."""

import pytest

from repro.frontend.predictors import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    GlobalHistory,
    GsharePredictor,
    SaturatingCounterTable,
    make_predictor,
)


class TestSaturatingCounters:
    def test_initial_state_predicts_not_taken(self):
        table = SaturatingCounterTable(16)
        assert not table.predict(0)

    def test_two_updates_flip_prediction(self):
        table = SaturatingCounterTable(16)
        table.update(3, True)
        assert table.predict(3)

    def test_saturation_at_max(self):
        table = SaturatingCounterTable(4, bits=2)
        for _ in range(10):
            table.update(0, True)
        assert table.counters[0] == 3

    def test_saturation_at_zero(self):
        table = SaturatingCounterTable(4, bits=2)
        for _ in range(10):
            table.update(0, False)
        assert table.counters[0] == 0

    def test_hysteresis(self):
        table = SaturatingCounterTable(4)
        for _ in range(4):
            table.update(0, True)
        table.update(0, False)  # strong-taken -> weak-taken
        assert table.predict(0)

    def test_index_wraps(self):
        table = SaturatingCounterTable(8)
        assert table.index(8) == 0
        assert table.index(13) == 5

    def test_storage_bits(self):
        assert SaturatingCounterTable(1 << 10, bits=2).storage_bits() \
            == 2048

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            SaturatingCounterTable(12)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            SaturatingCounterTable(16, bits=0)

    def test_rejects_counters_wider_than_a_byte(self):
        with pytest.raises(ValueError, match="at most 8"):
            SaturatingCounterTable(16, bits=9)

    def test_eight_bit_counters_saturate_at_255(self):
        table = SaturatingCounterTable(4, bits=8)
        for _ in range(300):
            table.update(1, True)
        assert table.counters[1] == 255
        assert table.predict(1)


class TestGlobalHistory:
    def test_push_shifts_in_lsb(self):
        history = GlobalHistory(4)
        history.push(True)
        history.push(False)
        history.push(True)
        assert history.value == 0b101

    def test_length_mask(self):
        history = GlobalHistory(3)
        for _ in range(10):
            history.push(True)
        assert history.value == 0b111

    def test_bits_subset(self):
        history = GlobalHistory(8)
        for outcome in (True, False, True, True):
            history.push(outcome)
        assert history.bits(2) == 0b11

    def test_zero_length_history(self):
        history = GlobalHistory(0)
        history.push(True)
        assert history.value == 0


class TestBimodal:
    def test_learns_a_biased_branch(self):
        predictor = BimodalPredictor(entries=1 << 8)
        for _ in range(4):
            predictor.update(0x40, True)
        assert predictor.predict(0x40)

    def test_distinct_addresses_are_independent(self):
        predictor = BimodalPredictor(entries=1 << 8)
        for _ in range(4):
            predictor.update(0x40, True)
            predictor.update(0x44, False)
        assert predictor.predict(0x40)
        assert not predictor.predict(0x44)


class TestGshare:
    def test_learns_an_alternating_pattern(self):
        """Bimodal cannot learn T/NT alternation; gshare can."""
        predictor = GsharePredictor(entries=1 << 10, history_length=4)
        outcome = True
        for _ in range(200):
            predictor.update(0x80, outcome)
            outcome = not outcome
        correct = 0
        for _ in range(100):
            if predictor.predict(0x80) == outcome:
                correct += 1
            predictor.update(0x80, outcome)
            outcome = not outcome
        assert correct >= 95


class TestFactory:
    @pytest.mark.parametrize("kind", ["always-taken", "bimodal", "gshare",
                                      "2bcgskew"])
    def test_creates_each_kind(self, kind):
        predictor = make_predictor(kind)
        predictor.update(0x10, True)
        assert isinstance(predictor.predict(0x10), bool)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            make_predictor("tage")

    def test_always_taken(self):
        predictor = AlwaysTakenPredictor()
        predictor.update(0, False)
        assert predictor.predict(0)

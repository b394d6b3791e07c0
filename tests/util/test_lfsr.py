"""Unit and property tests for repro.util.lfsr."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.lfsr import Lfsr, PRIMITIVE_TAPS, fibonacci_mask, max_period


class TestTaps:
    def test_default_16_bit_taps_are_the_classic_polynomial(self):
        assert PRIMITIVE_TAPS[16] == (16, 14, 13, 11)

    def test_taps_to_mask(self):
        # Shifting toward the LSB, term x^t reads bit width - t.
        assert fibonacci_mask((16, 14, 13, 11), 16) == 0b101101

    def test_taps_out_of_range(self):
        with pytest.raises(ValueError):
            fibonacci_mask((17,), 16)
        with pytest.raises(ValueError):
            fibonacci_mask((0,), 16)

    def test_max_period(self):
        assert max_period(16) == 65535
        assert max_period(3) == 7

    def test_max_period_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            max_period(0)


class TestLfsrBasics:
    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(16, seed=0)

    def test_seed_truncated_to_width(self):
        lfsr = Lfsr(4, seed=0x13)  # truncates to 0x3
        assert lfsr.state == 0x3

    def test_unknown_width_needs_explicit_taps(self):
        with pytest.raises(ValueError):
            Lfsr(21)
        lfsr = Lfsr(21, seed=1, taps=(21, 19))
        assert lfsr.width == 21

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(0, seed=1)

    def test_step_returns_lsb(self):
        lfsr = Lfsr(16, seed=0x0001)
        assert lfsr.step() == 1

    def test_next_word_is_width_steps(self):
        a = Lfsr(16, seed=0xACE1)
        b = Lfsr(16, seed=0xACE1)
        word = a.next_word()
        for _ in range(16):
            b.step()
        assert word == b.state

    def test_next_bits_count(self):
        lfsr = Lfsr(16, seed=0xACE1)
        assert len(lfsr.next_bits(23)) == 23

    def test_next_bits_rejects_negative(self):
        with pytest.raises(ValueError):
            Lfsr(16, seed=1).next_bits(-1)

    def test_peek_does_not_advance(self):
        lfsr = Lfsr(16, seed=0xACE1)
        assert lfsr.peek() == lfsr.peek() == 0xACE1

    def test_copy_is_independent(self):
        lfsr = Lfsr(16, seed=0xACE1)
        clone = lfsr.copy()
        lfsr.next_word()
        assert clone.state == 0xACE1
        assert lfsr.state != 0xACE1


@pytest.mark.parametrize("width", [3, 4, 5, 6, 7, 8, 9, 10])
class TestMaximalPeriod:
    def test_fibonacci_full_period(self, width):
        lfsr = Lfsr(width, seed=1)
        seen = {lfsr.state}
        for _ in range(max_period(width) - 1):
            lfsr.step()
            seen.add(lfsr.state)
        assert len(seen) == max_period(width)
        lfsr.step()
        assert lfsr.state == 1  # back to the seed: exact full cycle

    def test_never_reaches_zero(self, width):
        lfsr = Lfsr(width, seed=1)
        for _ in range(max_period(width)):
            lfsr.step()
            assert lfsr.state != 0


class TestSequenceProperties:
    @given(st.integers(1, 0xFFFF))
    @settings(max_examples=30)
    def test_deterministic_for_seed(self, seed):
        a = Lfsr(16, seed=seed)
        b = Lfsr(16, seed=seed)
        assert [a.step() for _ in range(50)] == [b.step() for _ in range(50)]

    def test_16_bit_word_sequence_is_balanced(self):
        lfsr = Lfsr(16, seed=0xACE1)
        words = [lfsr.next_word() for _ in range(2048)]
        ones = sum(bin(w).count("1") for w in words)
        total = 16 * len(words)
        assert abs(ones / total - 0.5) < 0.02

    def test_different_seeds_diverge(self):
        a = Lfsr(16, seed=0xACE1)
        b = Lfsr(16, seed=0xACE2)
        assert [a.next_word() for _ in range(8)] != [b.next_word() for _ in range(8)]

"""Tests for the deterministic RNG helpers."""

import pytest

from repro.util.rng import SplitMix64, make_rng, random_bytes, random_word


class TestMakeRng:
    def test_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_seeds_differ(self):
        assert make_rng(5).random() != make_rng(6).random()


class TestRandomBytes:
    def test_length(self):
        assert len(random_bytes(1, 37)) == 37

    def test_deterministic(self):
        assert random_bytes(9, 16) == random_bytes(9, 16)

    def test_bytes_vary_within_one_call(self):
        assert len(set(random_bytes(1, 256))) > 100

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            random_bytes(1, -1)


class TestRandomWord:
    def test_fits_width(self):
        for width in (1, 8, 16, 31):
            assert 0 <= random_word(3, width) < (1 << width)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            random_word(1, 0)


class TestSplitMix64:
    def test_deterministic(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]

    def test_below_in_range(self):
        rng = SplitMix64(7)
        for _ in range(200):
            assert 0 <= rng.below(13) < 13

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)

    def test_uniform_in_unit_interval(self):
        rng = SplitMix64(11)
        samples = [rng.uniform() for _ in range(500)]
        assert all(0.0 <= x < 1.0 for x in samples)
        assert abs(sum(samples) / len(samples) - 0.5) < 0.08

    def test_outputs_are_64_bit(self):
        rng = SplitMix64(3)
        for _ in range(20):
            assert 0 <= rng.next() < (1 << 64)

"""Tests for key handling and the location-scrambling arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ReproKeyError
from repro.core.key import MAX_PAIRS, Key, KeyPair, scramble_pair
from repro.core.params import PAPER_PARAMS, VectorParams


class TestKeyPair:
    def test_sorted_swaps(self):
        assert KeyPair(5, 2).sorted() == KeyPair(2, 5)

    def test_sorted_keeps_ordered(self):
        pair = KeyPair(1, 6)
        assert pair.sorted() is pair

    def test_span(self):
        assert KeyPair(3, 3).span == 1
        assert KeyPair(7, 0).span == 8

    def test_validate_range(self):
        with pytest.raises(ReproKeyError):
            KeyPair(8, 0).validate(PAPER_PARAMS)
        with pytest.raises(ReproKeyError):
            KeyPair(0, -1).validate(PAPER_PARAMS)

    def test_validate_type(self):
        with pytest.raises(ReproKeyError):
            KeyPair(True, 0).validate(PAPER_PARAMS)


class TestKey:
    def test_rejects_empty(self):
        with pytest.raises(ReproKeyError):
            Key([])

    def test_rejects_too_many_pairs(self):
        with pytest.raises(ReproKeyError):
            Key([(0, 0)] * (MAX_PAIRS + 1))

    def test_accepts_tuples(self):
        key = Key([(1, 2), (3, 4)])
        assert key.pairs[0] == KeyPair(1, 2)

    def test_round_robin_pairing(self):
        key = Key([(0, 1), (2, 3), (4, 5)])
        assert key.pair(0) == key.pair(3) == KeyPair(0, 1)
        assert key.pair(5) == KeyPair(4, 5)

    def test_len_and_iter(self):
        key = Key([(1, 1), (2, 2)])
        assert len(key) == 2
        assert list(key) == [KeyPair(1, 1), KeyPair(2, 2)]

    def test_equality_and_hash(self):
        a = Key([(1, 2)])
        b = Key([(1, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Key([(2, 1)])

    def test_generate_deterministic(self):
        assert Key.generate(seed=3) == Key.generate(seed=3)
        assert Key.generate(seed=3) != Key.generate(seed=4)

    def test_generate_bad_count(self):
        with pytest.raises(ReproKeyError):
            Key.generate(seed=1, n_pairs=0)
        with pytest.raises(ReproKeyError):
            Key.generate(seed=1, n_pairs=17)

    def test_generate_respects_params(self):
        params = VectorParams(32)
        key = Key.generate(seed=1, params=params)
        for pair in key:
            pair.validate(params)


class TestSerialisation:
    def test_hex_roundtrip(self):
        key = Key.generate(seed=5)
        assert Key.from_hex(key.to_hex()) == key

    def test_hex_format(self):
        assert Key([(0, 3), (7, 1)]).to_hex() == "03:71"

    def test_from_hex_rejects_garbage(self):
        with pytest.raises(ReproKeyError):
            Key.from_hex("zz")
        with pytest.raises(ReproKeyError):
            Key.from_hex("013")
        with pytest.raises(ReproKeyError):
            Key.from_hex("")

    def test_from_hex_rejects_out_of_range_values(self):
        with pytest.raises(ReproKeyError):
            Key.from_hex("09")  # 9 > key_max for 16-bit vectors

    def test_bytes_roundtrip(self):
        key = Key.generate(seed=8)
        assert Key.from_bytes(key.to_bytes()) == key

    def test_from_bytes_rejects_empty(self):
        with pytest.raises(ReproKeyError):
            Key.from_bytes(b"")

    def test_wide_params_reject_hex(self):
        params = VectorParams(64)
        key = Key([(0, 31)], params)
        with pytest.raises(ReproKeyError):
            key.to_hex()


class TestScramblePair:
    def test_fig8_worked_example(self):
        # V=0xCA06, K=(0,3): slice 010b, KN1=2, KN2=2+3=5 (paper Fig. 8).
        assert scramble_pair(KeyPair(0, 3), 0xCA06) == (2, 5)

    def test_unsorted_pair_gives_same_result(self):
        assert scramble_pair(KeyPair(3, 0), 0xCA06) == (2, 5)

    def test_truncation_to_three_bits(self):
        # K=(0,7): slice is the whole high byte; only 3 bits survive.
        v = 0xFF00  # slice = 0xFF -> truncates to 0b111 = 7
        kn1, kn2 = scramble_pair(KeyPair(0, 7), v)
        assert (kn1, kn2) == (6, 7)  # kn1=7, kn2=(7+7)%8=6, swapped

    def test_no_wrap_keeps_window_width(self):
        pair = KeyPair(4, 7)  # span 3
        v = 0x7000  # slice V[15:12] = 0b0111, xor 4 = 3
        assert scramble_pair(pair, v) == (3, 6)

    def test_wraparound_changes_window_width(self):
        # slice ^ k1 = 6, span 3: KN2 = (6+3) mod 8 = 1 < KN1, so the
        # swap fires and the window widens from 4 to 6 bits.
        pair = KeyPair(4, 7)
        v = 0x2000  # slice V[15:12] = 0b0010, xor 4 = 6
        kn1, kn2 = scramble_pair(pair, v)
        assert (kn1, kn2) == (1, 6)
        assert (kn2 - kn1 + 1) != pair.span

    def test_zero_vector_degenerates_to_raw_key(self):
        # With V=0 the XOR is identity, so KN == sorted K.
        assert scramble_pair(KeyPair(2, 5), 0) == (2, 5)

    def test_rejects_oversized_vector(self):
        with pytest.raises(ValueError):
            scramble_pair(KeyPair(0, 1), 0x1_0000)

    @given(
        st.integers(0, 7), st.integers(0, 7),
        st.integers(0, 0xFFFF),
    )
    def test_window_always_legal(self, k1, k2, vector):
        kn1, kn2 = scramble_pair(KeyPair(k1, k2), vector)
        assert 0 <= kn1 <= kn2 <= 7

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 0xFFFF))
    def test_depends_only_on_scramble_half(self, k1, k2, vector):
        low_junk = vector & 0x00FF
        kn_a = scramble_pair(KeyPair(k1, k2), vector)
        kn_b = scramble_pair(KeyPair(k1, k2), (vector & 0xFF00) | (low_junk ^ 0xFF))
        assert kn_a == kn_b

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 0xFFFFFFFF))
    def test_generalises_to_32_bit_vectors(self, k1, k2, vector):
        params = VectorParams(32)
        kn1, kn2 = scramble_pair(KeyPair(k1, k2), vector, params)
        assert 0 <= kn1 <= kn2 <= 15

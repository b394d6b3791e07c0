"""Tests for the CRC-16/CCITT-FALSE implementation."""

from hypothesis import given, strategies as st

from repro.util.crc import crc16_ccitt


class TestKnownVectors:
    def test_check_string(self):
        # The standard CRC-16/CCITT-FALSE check value.
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_empty_is_init(self):
        assert crc16_ccitt(b"") == 0xFFFF

    def test_single_zero_byte(self):
        assert crc16_ccitt(b"\x00") == 0xE1F0

    def test_detects_single_bit_flip(self):
        base = crc16_ccitt(b"hello world")
        assert crc16_ccitt(b"hello worle") != base


class TestIncremental:
    @given(st.binary(max_size=64), st.integers(0, 63))
    def test_split_equals_whole(self, data, cut):
        cut = min(cut, len(data))
        whole = crc16_ccitt(data)
        # repro.core.stream._packet_crc chains header and payload this way.
        chained = crc16_ccitt(data[cut:], init=crc16_ccitt(data[:cut]))
        assert chained == whole

    @given(st.binary(min_size=1, max_size=32))
    def test_crc_is_16_bits(self, data):
        assert 0 <= crc16_ccitt(data) <= 0xFFFF


class TestTableVsBitSerial:
    def test_table_form_matches_golden_model(self):
        # The production form runs binascii.crc_hqx; this differential
        # pins it to the bit-serial golden model so an edit to either
        # cannot drift silently.
        import random

        from repro.util.crc import crc16_ccitt_bitserial

        rng = random.Random(20050307)
        for _ in range(300):
            data = rng.randbytes(rng.randint(0, 64))
            init = rng.randrange(0x10000)
            assert crc16_ccitt(data, init) == crc16_ccitt_bitserial(data, init)

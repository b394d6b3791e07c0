"""Tests for the stego cover-traffic transport framing."""

import pytest

from repro.core.key import Key
from repro.scenario import CoverCodec, FaultyLink, TrafficMix
from repro.scenario.cover import COVER_HEADER, COVER_MAGIC


@pytest.fixture
def stego_key():
    return Key.generate(seed=2005)


class TestRoundTrip:
    @pytest.mark.parametrize("datagram", [
        b"", b"x", b"a typical link frame worth of bytes" * 3,
        bytes(range(256)),
    ])
    def test_wrap_unwrap_identity(self, stego_key, datagram):
        tx = CoverCodec(stego_key)
        rx = CoverCodec(stego_key)
        assert rx.unwrap(tx.wrap(datagram)) == datagram
        assert rx.undecodable == 0

    def test_frames_deterministic(self, stego_key):
        a = CoverCodec(stego_key, cover_seed=99)
        b = CoverCodec(stego_key, cover_seed=99)
        for datagram in (b"one", b"two", b"three"):
            assert a.wrap(datagram) == b.wrap(datagram)

    def test_per_frame_cover_differs(self, stego_key):
        codec = CoverCodec(stego_key)
        assert codec.wrap(b"same bytes") != codec.wrap(b"same bytes")
        assert codec.frames_wrapped == 2

    def test_wrap_never_exhausts_cover(self, stego_key):
        # Cover is sized to the guaranteed capacity floor, so even a
        # worst-case datagram embeds without CoverExhaustedError.
        codec = CoverCodec(stego_key)
        big = bytes(2000)
        assert CoverCodec(stego_key).unwrap(codec.wrap(big)) == big


class TestErrorPaths:
    def test_short_header_undecodable(self, stego_key):
        codec = CoverCodec(stego_key)
        assert codec.unwrap(b"COV") is None
        assert codec.undecodable == 1

    def test_bad_magic_undecodable(self, stego_key):
        tx = CoverCodec(stego_key)
        frame = bytearray(tx.wrap(b"payload"))
        frame[:4] = b"NOPE"
        rx = CoverCodec(stego_key)
        assert rx.unwrap(bytes(frame)) is None
        assert rx.undecodable == 1

    def test_truncated_frame_undecodable(self, stego_key):
        tx = CoverCodec(stego_key)
        frame = tx.wrap(b"payload")
        rx = CoverCodec(stego_key)
        assert rx.unwrap(frame[:-5]) is None
        assert rx.undecodable == 1

    def test_vector_count_overrunning_data_undecodable(self, stego_key):
        tx = CoverCodec(stego_key)
        frame = bytearray(tx.wrap(b"payload"))
        magic, n_bits, n_vectors, data_len = COVER_HEADER.unpack_from(frame)
        COVER_HEADER.pack_into(frame, 0, magic, n_bits,
                               data_len, data_len)  # vectors > words
        rx = CoverCodec(stego_key)
        assert rx.unwrap(bytes(frame)) is None
        assert rx.undecodable == 1

    def test_inconsistent_geometry_undecodable(self, stego_key):
        tx = CoverCodec(stego_key)
        frame = bytearray(tx.wrap(b"payload"))
        magic, n_bits, n_vectors, data_len = COVER_HEADER.unpack_from(frame)
        # n_bits not a whole number of bytes: no sender produces this.
        COVER_HEADER.pack_into(frame, 0, magic, n_bits + 3, n_vectors,
                               data_len)
        rx = CoverCodec(stego_key)
        assert rx.unwrap(bytes(frame)) is None
        assert rx.undecodable == 1

    def test_unwrap_never_raises_on_noise(self, stego_key):
        from repro.util.rng import random_bytes

        rx = CoverCodec(stego_key)
        for seed in range(20):
            noise = random_bytes(seed, 64 + seed)
            out = rx.unwrap(noise)
            assert out is None or isinstance(out, bytes)

    def test_wrong_key_never_yields_the_plaintext(self, stego_key):
        # A wrong stego key never raises and never recovers the
        # datagram: the frame either fails extraction (None, counted
        # undecodable) or parses to wrong bytes that the inner link
        # protocol's accounting rejects.
        frame = CoverCodec(stego_key).wrap(b"secret datagram")
        other = CoverCodec(Key.generate(seed=999))
        out = other.unwrap(frame)
        assert out != b"secret datagram"
        assert other.undecodable == (1 if out is None else 0)


class TestCoverTransport:
    def test_clean_cover_link_delivers_everything(self, stego_key):
        link = FaultyLink(stego_key, cover=True)
        link.handshake()
        mix = TrafficMix.duplex(12, seed=13)
        link.run_mix(mix)
        assert link.verify() == []
        for direction in ("i2r", "r2i"):
            assert [p for p, _ in link.delivered[direction]] == \
                mix.payloads(direction)
        assert link.probe() == []

    def test_cover_frames_hide_link_framing(self, stego_key):
        from repro.net.framing import HELLO_MAGIC

        codec = CoverCodec(stego_key)
        frame = codec.wrap(HELLO_MAGIC + b"rest of a hello")
        assert not frame.startswith(HELLO_MAGIC)
        assert frame.startswith(COVER_MAGIC)

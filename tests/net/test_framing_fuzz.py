"""Seeded byte-mutation fuzzing of :class:`repro.net.framing.FrameDecoder`.

The decoder sits directly on untrusted transport bytes, so its contract
under damage is the whole point: it may *only* ever raise
:class:`CipherFormatError` (the documented framing error), and every
frame it does emit must be well delimited — hello and kex frames parse
whole, and a packet frame's header parses and advertises exactly the
frame's length.  The packet CRC is the session's to check, not the
decoder's.  The corpus applies bit flips, truncation, duplication, junk
prefixes/infixes and deletions to valid hello+packet streams, then feeds
the result in randomly sized chunks.
"""

import os
import random

import pytest

from repro.core.errors import CipherFormatError
from repro.core.key import Key
from repro.core.stream import (
    HEADER_SIZE,
    PacketHeader,
    encrypt_packet,
    verify_packet,
)
from repro.kex.wire import unpack_record
from repro.net.framing import FrameDecoder, Hello
from repro.net.session import key_fingerprint

SEED = int(os.environ.get("REPRO_TEST_SEED", "20050307"))

#: Mutated streams per fuzzing mode.
ROUNDS = 400


def _build_stream(rng: random.Random, key: Key) -> tuple[bytes, int]:
    """A valid wire stream: one hello plus a handful of packets."""
    hello = Hello(
        algorithm=1,
        width=16,
        session_id=rng.randbytes(8),
        fingerprint=key_fingerprint(key),
        rekey_interval=rng.randint(1, 4096),
    )
    parts = [hello.pack()]
    n_packets = rng.randint(1, 5)
    for i in range(n_packets):
        payload = rng.randbytes(rng.randint(0, 40))
        parts.append(encrypt_packet(payload, key, nonce=i + 1, engine="fast"))
    return b"".join(parts), n_packets + 1


def _mutate(rng: random.Random, stream: bytes) -> bytes:
    """Apply 1-3 random mutations from the corpus operators."""
    data = bytearray(stream)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        if not data:
            break
        if op == 0:  # bit flips
            for _ in range(rng.randint(1, 8)):
                position = rng.randrange(len(data))
                data[position] ^= 1 << rng.randrange(8)
        elif op == 1:  # truncation
            data = data[: rng.randrange(len(data) + 1)]
        elif op == 2:  # duplicate a slice in place
            start = rng.randrange(len(data))
            end = min(len(data), start + rng.randint(1, 40))
            data[start:start] = data[start:end]
        elif op == 3:  # junk prefix / infix
            junk = rng.randbytes(rng.randint(1, 24))
            position = rng.choice([0, rng.randrange(len(data) + 1)])
            data[position:position] = junk
        else:  # delete a slice
            start = rng.randrange(len(data))
            end = min(len(data), start + rng.randint(1, 24))
            del data[start:end]
    return bytes(data)


def _feed_in_chunks(rng: random.Random, decoder: FrameDecoder, data: bytes):
    """Feed ``data`` in random chunk sizes, collecting frames."""
    frames = []
    offset = 0
    while offset < len(data):
        size = rng.randint(1, 97)
        frames.extend(decoder.feed(data[offset : offset + size]))
        offset += size
    return frames


def _assert_frames_delimited(frames) -> None:
    """Every emitted frame parses as its kind and has its own length."""
    for frame in frames:
        if frame.kind == "packet":
            header = PacketHeader.unpack(frame.raw)
            assert len(frame.raw) == HEADER_SIZE + header.payload_size
        elif frame.kind == "kex":
            unpack_record(frame.raw)
        else:
            assert frame.kind == "hello"
            Hello.unpack(frame.raw)


@pytest.fixture(scope="module")
def fuzz_key():
    return Key.generate(seed=2005, n_pairs=16)


class TestFrameDecoderFuzz:
    def test_clean_streams_decode_fully(self, fuzz_key):
        rng = random.Random(f"{SEED}:fuzz:clean")
        for _ in range(40):
            stream, n_frames = _build_stream(rng, fuzz_key)
            decoder = FrameDecoder()
            frames = _feed_in_chunks(rng, decoder, stream)
            assert decoder.pending == 0
            assert len(frames) == n_frames
            _assert_frames_delimited(frames)
            assert decoder.bytes_skipped == 0

    def test_strict_mode_only_raises_cipher_format_error(self, fuzz_key):
        rng = random.Random(f"{SEED}:fuzz:strict")
        for _ in range(ROUNDS):
            stream, _ = _build_stream(rng, fuzz_key)
            mutated = _mutate(rng, stream)
            decoder = FrameDecoder()
            try:
                frames = _feed_in_chunks(rng, decoder, mutated)
            except Exception as exc:  # noqa: BLE001 - the assertion itself
                assert isinstance(exc, CipherFormatError), repr(exc)
                continue
            _assert_frames_delimited(frames)

    def test_verify_crc_off_still_delimits(self, fuzz_key):
        # Framing only delimits; the session owns the packet CRC.
        packet = encrypt_packet(b"payload", fuzz_key, nonce=3)
        damaged = bytearray(packet)
        damaged[-1] ^= 0x01
        frames = FrameDecoder().feed(bytes(damaged))
        assert len(frames) == 1
        with pytest.raises(CipherFormatError, match="CRC"):
            verify_packet(frames[0].raw)

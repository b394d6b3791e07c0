"""Tests for incremental stream framing and the hello frame."""

import pytest

from repro.core.errors import CipherFormatError
from repro.core.stream import (
    ALGORITHM_MHHEA,
    HEADER_SIZE,
    PacketHeader,
    encrypt_packet,
)
from repro.net.framing import (
    HELLO_SIZE,
    Frame,
    FrameDecoder,
    Hello,
)

SID = b"\x10\x20\x30\x40\x50\x60\x70\x80"
FP = b"\xaa" * 8


def make_hello(**overrides):
    fields = dict(algorithm=ALGORITHM_MHHEA, width=16, session_id=SID,
                  fingerprint=FP, rekey_interval=1024)
    fields.update(overrides)
    return Hello(**fields)


def packet_stream(key, count):
    packets = [encrypt_packet(bytes([i] * (i + 1)), key, nonce=i + 1)
               for i in range(count)]
    return packets, b"".join(packets)


class TestHello:
    def test_roundtrip(self):
        hello = make_hello()
        blob = hello.pack()
        assert len(blob) == HELLO_SIZE
        assert Hello.unpack(blob) == hello

    def test_crc_detects_corruption(self):
        blob = bytearray(make_hello().pack())
        blob[10] ^= 0x01  # inside the session id
        with pytest.raises(CipherFormatError, match="CRC"):
            Hello.unpack(bytes(blob))

    def test_truncated(self):
        with pytest.raises(CipherFormatError, match="short"):
            Hello.unpack(make_hello().pack()[:-1])

    def test_bad_magic(self):
        blob = b"XXXX" + make_hello().pack()[4:]
        with pytest.raises(CipherFormatError, match="magic"):
            Hello.unpack(blob)

    def test_bad_algorithm_and_width(self):
        with pytest.raises(CipherFormatError):
            Hello.unpack(make_hello(algorithm=9).pack())
        with pytest.raises(CipherFormatError):
            Hello.unpack(make_hello(width=12).pack())


class TestFrameAccessors:
    def test_kind_mismatch_raises(self, key16):
        packet = encrypt_packet(b"x", key16)
        frame = Frame("packet", packet)
        assert PacketHeader.unpack(frame.raw).n_vectors > 0
        with pytest.raises(CipherFormatError):
            frame.hello()
        hello_frame = Frame("hello", make_hello().pack())
        assert hello_frame.hello() == make_hello()


class TestFrameDecoder:
    def test_whole_stream_at_once(self, key16):
        packets, stream = packet_stream(key16, 5)
        decoder = FrameDecoder()
        frames = decoder.feed(stream)
        assert [f.raw for f in frames] == packets
        assert all(f.kind == "packet" for f in frames)
        assert decoder.pending == 0

    def test_byte_at_a_time(self, key16):
        packets, stream = packet_stream(key16, 4)
        decoder = FrameDecoder()
        frames = []
        for i in range(len(stream)):
            frames.extend(decoder.feed(stream[i:i + 1]))
        assert [f.raw for f in frames] == packets
        assert decoder.pending == 0

    def test_partial_header_carries_over(self, key16):
        packets, stream = packet_stream(key16, 1)
        decoder = FrameDecoder()
        assert decoder.feed(stream[:HEADER_SIZE - 3]) == []
        assert decoder.pending == HEADER_SIZE - 3
        frames = decoder.feed(stream[HEADER_SIZE - 3:])
        assert [f.raw for f in frames] == packets

    def test_hello_then_packets(self, key16):
        packets, stream = packet_stream(key16, 2)
        decoder = FrameDecoder()
        frames = decoder.feed(make_hello().pack() + stream)
        assert [f.kind for f in frames] == ["hello", "packet", "packet"]
        assert frames[0].hello() == make_hello()

    def test_truncated_stream_detected_at_eof(self, key16):
        # The decoder holds the partial frame; LinkProtocol.receive_eof
        # turns pending bytes at EOF into a protocol error.
        _, stream = packet_stream(key16, 1)
        decoder = FrameDecoder()
        assert decoder.feed(stream[:-2]) == []
        assert decoder.pending == len(stream) - 2

    def test_corrupted_header_raises(self, key16):
        _, stream = packet_stream(key16, 1)
        damaged = b"JUNK" + stream[4:]
        with pytest.raises(CipherFormatError, match="magic"):
            FrameDecoder().feed(damaged)

    def test_bad_version_raises(self, key16):
        _, stream = packet_stream(key16, 1)
        damaged = bytearray(stream)
        damaged[4] = 99
        with pytest.raises(CipherFormatError, match="version"):
            FrameDecoder().feed(bytes(damaged))

    def test_corrupted_payload_crc_is_not_framings_problem(self, key16):
        # Framing only delimits; payload CRC is checked at decrypt time,
        # so a flipped payload byte still yields one complete frame.
        packets, stream = packet_stream(key16, 1)
        damaged = bytearray(stream)
        damaged[-1] ^= 0xFF
        frames = FrameDecoder().feed(bytes(damaged))
        assert len(frames) == 1
        assert frames[0].raw != packets[0]

    def test_oversized_payload_rejected_before_buffering(self, key16):
        stream = encrypt_packet(b"A" * 100, key16)
        decoder = FrameDecoder(max_payload=16)
        with pytest.raises(CipherFormatError, match="limit"):
            # Only the header is needed to reject: feed nothing else.
            decoder.feed(stream[:HEADER_SIZE])

    def test_trailing_garbage_raises(self, key16):
        _, stream = packet_stream(key16, 1)
        decoder = FrameDecoder()
        frames = decoder.feed(stream)
        assert len(frames) == 1
        with pytest.raises(CipherFormatError, match="magic"):
            decoder.feed(b"garbage!")

    def test_garbage_in_same_chunk_raises(self, key16):
        # A framing error is fatal for the stream: the whole chunk is
        # rejected, including any frame that preceded the junk.
        _, stream = packet_stream(key16, 1)
        with pytest.raises(CipherFormatError, match="magic"):
            FrameDecoder().feed(stream + b"garbage!")


class TestZeroCopy:
    """The memoryview framing contract: no copies, durable views."""

    def test_adopted_chunk_is_not_copied(self, key16):
        # With nothing pending, feed() adopts the chunk as the owning
        # buffer outright: the frames are views *into the caller's
        # bytes object*, no intermediate buffer exists at all.
        packets, stream = packet_stream(key16, 3)
        frames = FrameDecoder().feed(stream)
        assert [f.raw for f in frames] == packets
        for frame in frames:
            assert isinstance(frame.raw, memoryview)
            assert frame.raw.obj is stream

    def test_one_owner_per_drain(self, key16):
        packets, stream = packet_stream(key16, 4)
        frames = FrameDecoder().feed(stream)
        owners = {id(f.raw.obj) for f in frames}
        assert len(owners) == 1

    def test_byte_dribble_views_stay_correct(self, key16):
        # 1-byte chunks force a compaction per feed; every emitted view
        # must still hold exactly its packet's bytes at the end.
        packets, stream = packet_stream(key16, 4)
        decoder = FrameDecoder()
        frames = []
        for i in range(len(stream)):
            frames.extend(decoder.feed(stream[i:i + 1]))
        assert decoder.pending == 0
        assert [bytes(f.raw) for f in frames] == packets

    def test_held_frame_survives_later_compaction(self, key16):
        # The aliasing hazard: a consumer keeps frame 0 while the
        # decoder keeps compacting for later chunks.  Owners are
        # replaced, never mutated, so the held view must stay intact.
        packets, stream = packet_stream(key16, 3)
        decoder = FrameDecoder()
        split = len(packets[0]) + 5  # packet 0 + a partial packet 1
        held = decoder.feed(stream[:split])[0]
        assert decoder.pending == 5
        later = []
        for i in range(split, len(stream)):  # dribble: compacts each feed
            later.extend(decoder.feed(stream[i:i + 1]))
        assert bytes(held.raw) == packets[0]
        assert [bytes(f.raw) for f in later] == packets[1:]

    def test_reset_count_skipped_accounts_pending(self, key16):
        packets, stream = packet_stream(key16, 1)
        decoder = FrameDecoder()
        decoder.feed(stream[:-3])
        dropped = decoder.pending
        assert dropped > 0
        decoder.reset()
        assert decoder.pending == 0
        assert decoder.bytes_skipped == dropped
        # The count is cumulative: the next stream frames cleanly and
        # leaves it where it was.
        frames = decoder.feed(stream)
        assert [f.raw for f in frames] == packets
        assert decoder.pending == 0
        assert decoder.bytes_skipped == dropped

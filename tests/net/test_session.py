"""Tests for secure-link sessions: nonces, rekeying, replay windows."""

import pytest

from repro.core.errors import CipherFormatError, ReplayError, SessionError
from repro.core.key import Key
from repro.core.params import VectorParams
from repro.core.stream import ALGORITHM_HHEA, PacketHeader
from repro.net.session import (
    Session,
    SessionConfig,
    derive_epoch_key,
    key_fingerprint,
    nonce_for_seq,
    seq_for_nonce,
)

SID = b"\x01\x02\x03\x04\x05\x06\x07\x08"


def make_pair(key, config=None):
    """A correctly-paired initiator/responder session couple."""
    config = config or SessionConfig()
    return (Session(key, "initiator", SID, config),
            Session(key, "responder", SID, config))


class TestNonceSchedule:
    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_bijection_and_validity(self, width):
        seen = set()
        boundary = (1 << width) - 2
        max_seq = 0xFFFFFFFE if width >= 32 else 1 << 20
        probes = [seq for seq in
                  list(range(200)) + [boundary + d for d in range(-2, 3)]
                  if 0 <= seq <= max_seq]
        for seq in probes:
            nonce = nonce_for_seq(seq, width)
            assert nonce & ((1 << width) - 1) != 0
            assert nonce not in seen
            seen.add(nonce)
            assert seq_for_nonce(nonce, width) == seq

    def test_skips_lfsr_zero_state(self):
        # seq 65534 -> nonce 65535; seq 65535 must skip 0x10000.
        assert nonce_for_seq(65534, 16) == 0xFFFF
        assert nonce_for_seq(65535, 16) == 0x10001

    def test_monotonic(self):
        nonces = [nonce_for_seq(seq, 16) for seq in range(70000)]
        assert nonces == sorted(set(nonces))

    def test_exhaustion(self):
        with pytest.raises(SessionError, match="exhausted"):
            nonce_for_seq(0xFFFFFFFF, 32)

    def test_negative_seq(self):
        with pytest.raises(SessionError):
            nonce_for_seq(-1, 16)

    def test_bad_nonce_rejected_on_receive(self):
        with pytest.raises(SessionError):
            seq_for_nonce(0, 16)
        with pytest.raises(SessionError):
            seq_for_nonce(0x10000, 16)  # multiple of 2**16
        with pytest.raises(SessionError):
            seq_for_nonce(0x1_0000_0000, 16)


class TestKeyDerivation:
    def test_directions_get_distinct_keys(self, key16):
        i2r = derive_epoch_key(key16, SID, b"i->r", 0)
        r2i = derive_epoch_key(key16, SID, b"r->i", 0)
        assert i2r != r2i
        assert i2r != key16

    def test_sessions_get_distinct_keys(self, key16):
        a = derive_epoch_key(key16, b"AAAAAAAA", b"i->r", 0)
        b = derive_epoch_key(key16, b"BBBBBBBB", b"i->r", 0)
        assert a != b

    def test_epochs_get_distinct_keys(self, key16):
        assert derive_epoch_key(key16, SID, b"i->r", 0) != \
            derive_epoch_key(key16, SID, b"i->r", 1)

    def test_deterministic(self, key16):
        assert derive_epoch_key(key16, SID, b"i->r", 3) == \
            derive_epoch_key(key16, SID, b"i->r", 3)

    def test_fingerprint_distinguishes_keys(self, key16, key4):
        assert key_fingerprint(key16) != key_fingerprint(key4)
        assert len(key_fingerprint(key16)) == 8


class TestConfig:
    def test_rekey_interval_bounded_by_lfsr_period(self, key16):
        SessionConfig(rekey_interval=65535).validate(16)
        with pytest.raises(SessionError, match="period"):
            SessionConfig(rekey_interval=65536).validate(16)

    def test_rejects_bad_values(self, key16):
        with pytest.raises(SessionError):
            SessionConfig(rekey_interval=0).validate(16)
        with pytest.raises(SessionError):
            SessionConfig(algorithm=9).validate(16)
        with pytest.raises(SessionError):
            SessionConfig(max_payload=0).validate(16)

    def test_max_wire_payload_covers_worst_case_expansion(self, key16):
        # Worst case: every message bit costs one whole vector, i.e.
        # width wire bytes per plaintext byte.
        config = SessionConfig(max_payload=512)
        assert config.max_wire_payload(16) == 512 * 16

    def test_session_rejects_bad_role_and_id(self, key16):
        with pytest.raises(SessionError):
            Session(key16, "observer", SID)
        with pytest.raises(SessionError):
            Session(key16, "initiator", b"short")


class TestRoundTrip:
    def test_duplex_byte_exact(self, key16):
        a, b = make_pair(key16)
        for i in range(10):
            payload = bytes([i]) * (i + 3)
            assert b.decrypt(a.encrypt(payload)) == payload
            assert a.decrypt(b.encrypt(payload)) == payload

    def test_hhea_session(self, key16):
        config = SessionConfig(algorithm=ALGORITHM_HHEA)
        a, b = make_pair(key16, config)
        assert b.decrypt(a.encrypt(b"hhea payload")) == b"hhea payload"

    def test_wide_vectors(self):
        key = Key.generate(seed=3, params=VectorParams(32))
        a, b = make_pair(key)
        assert b.decrypt(a.encrypt(b"wide")) == b"wide"

    def test_oversized_payload_refused(self, key16):
        a, _ = make_pair(key16, SessionConfig(max_payload=8))
        with pytest.raises(SessionError, match="exceeds"):
            a.encrypt(b"nine bytes")


class TestNonceUniqueness:
    def test_sessions_never_reuse_a_nonce(self, key16):
        """Acceptance criterion: across rekeys, every (epoch key, masked
        nonce) pair a direction emits is unique — no hiding-vector stream
        is ever generated twice."""
        config = SessionConfig(rekey_interval=7)
        a, _ = make_pair(key16, config)
        seen = set()
        for i in range(100):
            packet = a.encrypt(b"x" * (i % 13))
            header = PacketHeader.unpack(packet)
            epoch = seq_for_nonce(header.nonce, 16) // config.rekey_interval
            effective = (epoch, header.nonce & 0xFFFF)
            assert effective not in seen, f"nonce reuse at packet {i}"
            seen.add(effective)
        assert len(seen) == 100

    def test_directions_draw_from_disjoint_keys(self, key16):
        # Same seq on both directions is safe: the working keys differ.
        a, b = make_pair(key16)
        pa = a.encrypt(b"same payload")
        pb = b.encrypt(b"same payload")
        assert PacketHeader.unpack(pa).nonce == PacketHeader.unpack(pb).nonce
        assert pa != pb


class TestRekeying:
    def test_rekey_after_n_packets(self, key16):
        config = SessionConfig(rekey_interval=5)
        a, b = make_pair(key16, config)
        payloads = [bytes([i]) * 4 for i in range(17)]
        for payload in payloads:
            assert b.decrypt(a.encrypt(payload)) == payload
        assert a.metrics.tx.rekeys == 3  # epochs 1, 2, 3
        assert b.metrics.rx.rekeys == 3

    def test_rekey_survives_packet_loss_across_epoch(self, key16):
        config = SessionConfig(rekey_interval=4)
        a, b = make_pair(key16, config)
        packets = [a.encrypt(bytes([i])) for i in range(12)]
        # Drop everything from seq 2..9: the receiver jumps two epochs.
        assert b.decrypt(packets[0]) == b"\x00"
        assert b.decrypt(packets[1]) == b"\x01"
        assert b.decrypt(packets[10]) == b"\x0a"
        assert b.metrics.rx.gaps == 8
        assert b.metrics.rx.rekeys == 2


class TestReplayDetection:
    def test_replay_rejected(self, key16):
        a, b = make_pair(key16)
        packet = a.encrypt(b"once")
        assert b.decrypt(packet) == b"once"
        with pytest.raises(ReplayError):
            b.decrypt(packet)
        assert b.metrics.rx.replays == 1

    def test_reordering_rejected(self, key16):
        a, b = make_pair(key16)
        first = a.encrypt(b"first")
        second = a.encrypt(b"second")
        assert b.decrypt(second) == b"second"
        with pytest.raises(ReplayError):
            b.decrypt(first)

    def test_gap_accepted_and_counted(self, key16):
        a, b = make_pair(key16)
        packets = [a.encrypt(bytes([i])) for i in range(5)]
        assert b.decrypt(packets[0]) == b"\x00"
        assert b.decrypt(packets[4]) == b"\x04"
        assert b.metrics.rx.gaps == 3

    def test_corrupted_nonce_bit_cannot_wedge_the_window(self, key16):
        # The packet CRC covers the header, so a flipped nonce bit is
        # rejected as damage instead of silently jumping the replay
        # window forward (which would make every later genuine packet
        # look like a replay).
        a, b = make_pair(key16)
        first = bytearray(a.encrypt(b"first"))
        first[8] ^= 0x04  # nonce 1 -> 5 (same epoch, same key)
        with pytest.raises(CipherFormatError, match="CRC"):
            b.decrypt(bytes(first))
        assert b.last_recv_seq == -1  # window untouched
        assert b.decrypt(a.encrypt(b"second")) == b"second"

    def test_corrupt_packet_does_not_advance_window(self, key16):
        a, b = make_pair(key16)
        packet = a.encrypt(b"fragile")
        damaged = bytearray(packet)
        damaged[-1] ^= 0xFF
        with pytest.raises(CipherFormatError):
            b.decrypt(bytes(damaged))
        assert b.metrics.rx.crc_failures == 1
        # The pristine copy of the same sequence number still decrypts.
        assert b.decrypt(packet) == b"fragile"

    def test_wrong_width_packet_rejected(self, key16):
        _, b = make_pair(key16)
        wide = Key.generate(seed=3, params=VectorParams(32))
        wide_sender = Session(wide, "initiator", SID)
        with pytest.raises(SessionError, match="32-bit"):
            b.decrypt(wide_sender.encrypt(b"wrong width"))

    def test_algorithm_switch_rejected(self, key16):
        _, b = make_pair(key16)
        hhea_a, _ = make_pair(key16, SessionConfig(algorithm=ALGORITHM_HHEA))
        with pytest.raises(SessionError, match="algorithm"):
            b.decrypt(hhea_a.encrypt(b"wrong algorithm"))


class TestMetricsAccounting:
    def test_counters_track_traffic(self, key16):
        a, b = make_pair(key16)
        wire = [a.encrypt(b"12345") for _ in range(4)]
        for packet in wire:
            b.decrypt(packet)
        assert a.metrics.tx.packets == 4
        assert a.metrics.tx.payload_bytes == 20
        assert a.metrics.tx.wire_bytes == sum(len(p) for p in wire)
        assert b.metrics.rx.packets == 4
        assert b.metrics.rx.payload_bytes == 20


class TestRootKeyValidation:
    def test_zero_length_root_key_raises_session_error(self, key16):
        # A hollowed-out key (no pairs) must be rejected at construction
        # with a clear SessionError, not fail deep inside the epoch-key
        # derivation on first use.
        key16.pairs = ()
        with pytest.raises(SessionError, match="no pairs"):
            Session(key16, "initiator", SID)

    def test_zero_length_root_key_error_names_the_cause(self, key16):
        key16.pairs = ()
        with pytest.raises(SessionError, match="key pair"):
            Session(key16, "responder", SID)


class TestEngineSelection:
    def test_fast_and_reference_sessions_interoperate(self, key16):
        # The engine is a purely local choice: packets are byte-identical,
        # so a fast initiator talks to a reference responder and back.
        fast = Session(key16, "initiator", SID, SessionConfig(engine="fast"))
        ref = Session(key16, "responder", SID,
                      SessionConfig(engine="reference"))
        assert ref.decrypt(fast.encrypt(b"fast to reference")) == b"fast to reference"
        assert fast.decrypt(ref.encrypt(b"reference to fast")) == b"reference to fast"

    def test_engines_emit_identical_wire_packets(self, key16):
        fast = Session(key16, "initiator", SID, SessionConfig(engine="fast"))
        ref = Session(key16, "initiator", SID,
                      SessionConfig(engine="reference"))
        for payload in (b"", b"x", b"a longer payload" * 9):
            assert fast.encrypt(payload) == ref.encrypt(payload)

    def test_unknown_engine_rejected(self, key16):
        with pytest.raises(SessionError, match="engine"):
            Session(key16, "initiator", SID, SessionConfig(engine="turbo"))


class TestDecryptBatch:
    """decrypt_batch == sequential decrypt, minus the per-packet overhead."""

    def test_matches_sequential_decrypt(self, key16):
        a, b = make_pair(key16)
        a2, b2 = make_pair(key16)
        payloads = [b"batch %d" % i for i in range(8)]
        packets = [a.encrypt(p) for p in payloads]
        assert b.decrypt_batch(packets) == payloads
        # Byte-for-byte the same session state as the sequential twin.
        for p in payloads:
            b2.decrypt(a2.encrypt(p))
        assert b.last_recv_seq == b2.last_recv_seq
        timing = ("elapsed_s", "rx_mbps", "tx_mbps")
        batched, sequential = b.metrics.snapshot(), b2.metrics.snapshot()
        for key in timing:
            batched.pop(key, None), sequential.pop(key, None)
        assert batched == sequential

    def test_empty_batch(self, key16):
        _, b = make_pair(key16)
        assert b.decrypt_batch([]) == []
        assert b.last_recv_seq == -1

    def test_accepts_memoryviews(self, key16):
        a, b = make_pair(key16)
        packets = [memoryview(a.encrypt(b"view %d" % i)) for i in range(3)]
        assert b.decrypt_batch(packets) == [b"view 0", b"view 1", b"view 2"]

    def test_replay_mid_batch_keeps_accepted_prefix(self, key16):
        a, b = make_pair(key16)
        packets = [a.encrypt(b"p%d" % i) for i in range(3)]
        accepted = []
        with pytest.raises(ReplayError):
            b.decrypt_batch([packets[0], packets[1], packets[0]],
                            accepted=accepted)
        assert accepted == [(b"p0", 0), (b"p1", 1)]
        # The prefix stayed committed: its slots are burned, later
        # genuine traffic still flows — exactly sequential semantics.
        with pytest.raises(ReplayError):
            b.decrypt(packets[1])
        assert b.decrypt(packets[2]) == b"p2"

    def test_damage_mid_batch_counts_crc_failure(self, key16):
        a, b = make_pair(key16)
        good = a.encrypt(b"good")
        bad = a.encrypt(b"bad")
        bad = bad[:-1] + bytes([bad[-1] ^ 0xFF])
        accepted = []
        with pytest.raises(CipherFormatError):
            b.decrypt_batch([good, bad], accepted=accepted)
        assert accepted == [(b"good", 0)]
        assert b.metrics.rx.crc_failures == 1

    def test_batch_crosses_rekey_boundary(self, key16):
        config = SessionConfig(rekey_interval=4)
        a, b = make_pair(key16, config)
        payloads = [b"epoch %d" % i for i in range(10)]
        packets = [a.encrypt(p) for p in payloads]
        assert b.decrypt_batch(packets) == payloads
        assert b.metrics.rx.rekeys == 2

    def test_batch_with_gaps(self, key16):
        a, b = make_pair(key16)
        packets = [a.encrypt(bytes([i])) for i in range(6)]
        assert b.decrypt_batch([packets[0], packets[2], packets[5]]) == [
            b"\x00", b"\x02", b"\x05"
        ]
        assert b.metrics.rx.gaps == 3

"""Unit tests for the sans-IO LinkProtocol state machine."""

import pytest

from repro.core.errors import HandshakeError, ReplayError, SessionError
from repro.core.key import Key
from repro.link import (
    CLOSED,
    FAILED,
    HANDSHAKE,
    OPEN,
    HandshakeComplete,
    LinkClosed,
    LinkPair,
    LinkProtocol,
    PacketReceived,
    PayloadReceived,
    ProtocolError,
)
from repro.net.framing import Hello
from repro.net.session import Session, SessionConfig, key_fingerprint

SID = b"protosid"


def handshaken(key, config=None):
    """A fresh, pumped-open pair of protocol ends."""
    pair = LinkPair(key, config=config, session_id=SID)
    pair.handshake()
    return pair


class TestHandshake:
    def test_initiator_queues_hello_at_construction(self, key16):
        proto = LinkProtocol(key16, "initiator", session_id=SID)
        assert proto.state == HANDSHAKE
        hello = Hello.unpack(proto.data_to_send())
        assert hello.session_id == SID
        assert hello.fingerprint == key_fingerprint(key16)

    def test_responder_sends_nothing_until_hello_arrives(self, key16):
        proto = LinkProtocol(key16, "responder")
        assert proto.bytes_to_send == 0
        assert proto.session_id is None

    def test_both_ends_emit_handshake_complete(self, key16):
        pair = LinkPair(key16, session_id=SID)
        initiator_events, responder_events = pair.pump()
        assert [type(e) for e in initiator_events] == [HandshakeComplete]
        assert [type(e) for e in responder_events] == [HandshakeComplete]
        assert pair.initiator.state == OPEN
        assert pair.responder.state == OPEN
        assert pair.responder.session_id == SID

    def test_sessions_pair_up(self, key16):
        pair = handshaken(key16)
        packet = pair.initiator.session.encrypt(b"direct")
        assert pair.responder.session.decrypt(packet) == b"direct"

    def test_fingerprint_mismatch_fails_responder(self, key16):
        other = Key.generate(seed=4242, n_pairs=16)
        initiator = LinkProtocol(other, "initiator", session_id=SID)
        responder = LinkProtocol(key16, "responder")
        events = responder.receive_data(initiator.data_to_send())
        assert len(events) == 1
        assert isinstance(events[0], ProtocolError)
        assert "fingerprint" in str(events[0].error)
        assert responder.state == FAILED
        assert responder.session is None  # no partial session leaks
        assert responder.bytes_to_send == 0  # no reply escapes

    def test_rekey_interval_mismatch_fails_responder(self, key16):
        initiator = LinkProtocol(key16, "initiator", session_id=SID,
                                 config=SessionConfig(rekey_interval=100))
        responder = LinkProtocol(key16, "responder",
                                 config=SessionConfig(rekey_interval=200))
        [event] = responder.receive_data(initiator.data_to_send())
        assert isinstance(event, ProtocolError)
        assert "rekey interval" in str(event.error)

    def test_initiator_rejects_foreign_session_id_echo(self, key16):
        initiator = LinkProtocol(key16, "initiator", session_id=SID)
        initiator.data_to_send()
        reply = Hello(
            algorithm=SessionConfig().algorithm,
            width=key16.params.width,
            session_id=b"WRONGSID",
            fingerprint=key_fingerprint(key16),
            rekey_interval=SessionConfig().rekey_interval,
        )
        [event] = initiator.receive_data(reply.pack())
        assert isinstance(event, ProtocolError)
        assert "session id" in str(event.error)

    def test_packet_before_hello_is_fatal(self, key16):
        responder = LinkProtocol(key16, "responder")
        packet = Session(key16, "initiator", SID).encrypt(b"too early")
        [event] = responder.receive_data(packet)
        assert isinstance(event, ProtocolError)
        assert isinstance(event.error, HandshakeError)

    def test_eof_during_handshake_is_fatal(self, key16):
        initiator = LinkProtocol(key16, "initiator", session_id=SID)
        [event] = initiator.receive_eof()
        assert isinstance(event, ProtocolError)
        assert "handshake" in str(event.error)
        assert initiator.state == FAILED

    def test_responder_rejects_explicit_session_id(self, key16):
        with pytest.raises(SessionError, match="responder"):
            LinkProtocol(key16, "responder", session_id=SID)

    def test_bad_role_rejected(self, key16):
        with pytest.raises(SessionError, match="role"):
            LinkProtocol(key16, "sidecar", session_id=SID)


class TestOpenTraffic:
    def test_round_trip_both_directions(self, key16):
        pair = handshaken(key16)
        pair.initiator.send_payload(b"ping")
        _, responder_events = pair.pump()
        assert responder_events == [PayloadReceived(b"ping", 0)]
        pair.responder.send_payload(b"pong")
        initiator_events, _ = pair.pump()
        assert initiator_events == [PayloadReceived(b"pong", 0)]

    def test_hello_mid_session_is_fatal(self, key16):
        pair = handshaken(key16)
        hello = LinkProtocol(key16, "initiator", session_id=SID)
        [event] = pair.responder.receive_data(hello.data_to_send())
        assert isinstance(event, ProtocolError)
        assert "mid-session" in str(event.error)

    def test_replayed_packet_is_fatal_in_stream_mode(self, key16):
        pair = handshaken(key16)
        pair.initiator.send_payload(b"once")
        packet = pair.initiator.data_to_send()
        assert isinstance(pair.responder.receive_data(packet)[0],
                          PayloadReceived)
        [event] = pair.responder.receive_data(packet)
        assert isinstance(event, ProtocolError)
        assert isinstance(event.error, ReplayError)
        assert pair.responder.state == FAILED

    def test_send_before_open_raises(self, key16):
        proto = LinkProtocol(key16, "initiator", session_id=SID)
        with pytest.raises(SessionError, match="HANDSHAKE"):
            proto.send_payload(b"too soon")

    def test_send_after_failure_raises(self, key16):
        pair = handshaken(key16)
        pair.responder.receive_data(b"JUNKJUNKJUNK")
        with pytest.raises(SessionError, match="FAILED"):
            pair.responder.send_payload(b"nope")

    def test_failed_machine_ignores_further_input(self, key16):
        pair = handshaken(key16)
        [event] = pair.responder.receive_data(b"garbage bytes")
        assert isinstance(event, ProtocolError)
        assert pair.responder.receive_data(b"more garbage") == []
        assert pair.responder.receive_eof() == []

    def test_decrypt_payloads_false_defers_crypto(self, key16):
        initiator = LinkProtocol(key16, "initiator", session_id=SID)
        responder = LinkProtocol(key16, "responder",
                                 decrypt_payloads=False)
        responder.receive_data(initiator.data_to_send())
        initiator.receive_data(responder.data_to_send())
        initiator.send_payload(b"deferred")
        [event] = responder.receive_data(initiator.data_to_send())
        assert isinstance(event, PacketReceived)
        # The caller decrypts through the machine's session (the pool
        # offload path of the asyncio adapters).
        assert responder.session.decrypt(event.packet) == b"deferred"

    def test_send_packet_escape_hatch_matches_send_payload(self, key16):
        direct = handshaken(key16)
        hatched = handshaken(key16)
        direct.initiator.send_payload(b"same bytes")
        packet = hatched.initiator.session.encrypt(b"same bytes")
        hatched.initiator.send_packet(packet)
        assert (direct.initiator.data_to_send()
                == hatched.initiator.data_to_send())


class TestCloseAndEof:
    def test_clean_eof_emits_link_closed(self, key16):
        pair = handshaken(key16)
        assert pair.responder.receive_eof() == [LinkClosed()]
        assert pair.responder.peer_closed

    def test_half_close_keeps_send_side_usable(self, key16):
        pair = handshaken(key16)
        pair.responder.receive_eof()
        pair.responder.send_payload(b"parting reply")  # must not raise
        assert pair.responder.bytes_to_send > 0

    def test_eof_mid_frame_is_fatal(self, key16):
        pair = handshaken(key16)
        pair.initiator.send_payload(b"will be torn")
        torn = pair.initiator.data_to_send()[:-3]
        assert pair.responder.receive_data(torn) == []
        [event] = pair.responder.receive_eof()
        assert isinstance(event, ProtocolError)
        assert "mid-frame" in str(event.error)

    def test_local_close_is_idempotent_and_final(self, key16):
        pair = handshaken(key16)
        pair.initiator.close()
        pair.initiator.close()
        assert pair.initiator.state == CLOSED
        with pytest.raises(SessionError, match="CLOSED"):
            pair.initiator.send_payload(b"after close")
        assert pair.initiator.receive_data(b"whatever") == []


class TestDatagramMode:
    def pair(self, key, **kwargs):
        initiator = LinkProtocol(key, "initiator", session_id=SID,
                                 datagram=True, **kwargs)
        responder = LinkProtocol(key, "responder", datagram=True, **kwargs)
        [hello] = initiator.datagrams_to_send()
        responder.receive_datagram(hello)
        [reply] = responder.datagrams_to_send()
        initiator.receive_datagram(reply)
        assert initiator.state == OPEN and responder.state == OPEN
        return initiator, responder

    def test_handshake_and_round_trip(self, key16):
        initiator, responder = self.pair(key16)
        initiator.send_payload(b"dgram")
        [datagram] = initiator.datagrams_to_send()
        assert responder.receive_datagram(datagram) == [
            PayloadReceived(b"dgram", 0)
        ]

    def test_replayed_datagram_dropped_not_fatal(self, key16):
        initiator, responder = self.pair(key16)
        initiator.send_payload(b"dup")
        [datagram] = initiator.datagrams_to_send()
        responder.receive_datagram(datagram)
        assert responder.receive_datagram(datagram) == []
        assert responder.state == OPEN
        assert responder.datagrams_dropped == 1

    def test_reordering_newest_wins_older_dropped(self, key16):
        initiator, responder = self.pair(key16)
        datagrams = []
        for i in range(3):
            initiator.send_payload(b"seq %d" % i)
            datagrams.extend(initiator.datagrams_to_send())
        # Deliver out of order: 2 first, then the stale 0 and 1.
        assert responder.receive_datagram(datagrams[2]) == [
            PayloadReceived(b"seq 2", 2)
        ]
        assert responder.receive_datagram(datagrams[0]) == []
        assert responder.receive_datagram(datagrams[1]) == []
        assert responder.datagrams_dropped == 2
        assert responder.session.metrics.rx.replays == 2

    def test_damaged_datagram_dropped(self, key16):
        initiator, responder = self.pair(key16)
        initiator.send_payload(b"will corrupt")
        [datagram] = initiator.datagrams_to_send()
        mangled = datagram[:-1] + bytes([datagram[-1] ^ 0xFF])
        assert responder.receive_datagram(mangled) == []
        assert responder.state == OPEN
        assert responder.datagrams_dropped == 1

    def test_wrong_key_hello_still_fatal(self, key16):
        other = Key.generate(seed=999, n_pairs=16)
        initiator = LinkProtocol(other, "initiator", session_id=SID,
                                 datagram=True)
        responder = LinkProtocol(key16, "responder", datagram=True)
        [hello] = initiator.datagrams_to_send()
        [event] = responder.receive_datagram(hello)
        assert isinstance(event, ProtocolError)
        assert responder.state == FAILED

    def test_mode_confusion_raises(self, key16):
        stream = LinkProtocol(key16, "initiator", session_id=SID)
        dgram = LinkProtocol(key16, "initiator", session_id=SID,
                             datagram=True)
        with pytest.raises(SessionError, match="datagram links"):
            dgram.receive_data(b"x")
        with pytest.raises(SessionError, match="stream links"):
            stream.receive_datagram(b"x")

    def test_decrypt_payloads_false_emits_packet(self, key16):
        # Regression: datagram mode used to decrypt inline regardless of
        # decrypt_payloads=False, breaking the worker-pool offload hatch
        # on datagram transports.
        initiator, responder = self.pair(key16, decrypt_payloads=False)
        initiator.send_payload(b"offloaded")
        [datagram] = initiator.datagrams_to_send()
        [event] = responder.receive_datagram(datagram)
        assert isinstance(event, PacketReceived)
        # bytes, not a view: the event crosses pickle boundaries.
        assert type(event.packet) is bytes
        assert responder.session.decrypt(event.packet) == b"offloaded"

    def test_decrypt_payloads_false_still_drops_unframeable(self, key16):
        initiator, responder = self.pair(key16, decrypt_payloads=False)
        assert responder.receive_datagram(b"not a frame") == []
        assert responder.datagrams_dropped == 1
        assert responder.state == OPEN

    def test_decoder_reused_across_datagrams(self, key16):
        # Regression: each datagram used to get a fresh FrameDecoder,
        # losing the skip accounting and reallocating on the hot path.
        initiator, responder = self.pair(key16)
        decoder = responder._decoder
        initiator.send_payload(b"one")
        [datagram] = initiator.datagrams_to_send()
        responder.receive_datagram(datagram)
        assert responder._decoder is decoder

    def test_drop_accounting_survives_decoder_reuse(self, key16):
        initiator, responder = self.pair(key16)
        junk_first = b"\xde\xad\xbe\xef garbage"
        junk_second = b"MH"  # a bare magic prefix: unframeable too
        assert responder.receive_datagram(junk_first) == []
        assert responder.receive_datagram(junk_second) == []
        assert responder.datagrams_dropped == 2
        skipped = responder._decoder.bytes_skipped
        assert skipped == len(junk_first) + len(junk_second)
        # The reused decoder is clean: a valid datagram still decodes,
        # and the cumulative skip count is undisturbed by success.
        initiator.send_payload(b"still fine")
        [datagram] = initiator.datagrams_to_send()
        assert responder.receive_datagram(datagram) == [
            PayloadReceived(b"still fine", 0)
        ]
        assert responder._decoder.bytes_skipped == skipped
        assert responder.datagrams_dropped == 2

    def test_two_frames_in_one_datagram_dropped_with_accounting(self, key16):
        initiator, responder = self.pair(key16)
        initiator.send_payload(b"a")
        initiator.send_payload(b"b")
        two = b"".join(initiator.datagrams_to_send())
        assert responder.receive_datagram(two) == []
        assert responder.datagrams_dropped == 1
        # Neither frame bled into the next receive: the decoder reset.
        initiator.send_payload(b"c")
        [datagram] = initiator.datagrams_to_send()
        assert responder.receive_datagram(datagram) == [
            PayloadReceived(b"c", 2)
        ]


class TestBatchedReceive:
    """The stream hot path: bursts decrypt through Session.decrypt_batch."""

    def test_burst_matches_per_frame_delivery(self, key16):
        pair = handshaken(key16)
        payloads = [b"burst %d" % i for i in range(6)]
        for payload in payloads:
            pair.initiator.send_payload(payload)
        burst = pair.initiator.data_to_send()
        events = pair.responder.receive_data(burst)
        assert events == [PayloadReceived(p, i)
                          for i, p in enumerate(payloads)]

    def test_burst_one_byte_at_a_time(self, key16):
        pair = handshaken(key16)
        payloads = [b"drip %d" % i for i in range(3)]
        for payload in payloads:
            pair.initiator.send_payload(payload)
        burst = pair.initiator.data_to_send()
        events = []
        for i in range(len(burst)):
            events.extend(pair.responder.receive_data(burst[i:i + 1]))
        assert events == [PayloadReceived(p, i)
                          for i, p in enumerate(payloads)]

    def test_damage_mid_burst_keeps_accepted_prefix(self, key16):
        pair = handshaken(key16)
        for i in range(3):
            pair.initiator.send_payload(b"pkt %d" % i)
        packets = []
        # Collect the three individual packets for surgical damage.
        from repro.core.stream import split_packets
        packets = split_packets(pair.initiator.data_to_send())
        mangled = packets[1][:-1] + bytes([packets[1][-1] ^ 0xFF])
        events = pair.responder.receive_data(
            packets[0] + mangled + packets[2])
        assert events[0] == PayloadReceived(b"pkt 0", 0)
        assert isinstance(events[1], ProtocolError)
        assert len(events) == 2  # nothing after the failure
        assert pair.responder.state == FAILED

    def test_replay_mid_burst_keeps_accepted_prefix(self, key16):
        pair = handshaken(key16)
        pair.initiator.send_payload(b"first")
        pair.initiator.send_payload(b"second")
        from repro.core.stream import split_packets
        packets = split_packets(pair.initiator.data_to_send())
        events = pair.responder.receive_data(
            packets[0] + packets[1] + packets[0])
        assert events[:2] == [PayloadReceived(b"first", 0),
                              PayloadReceived(b"second", 1)]
        assert isinstance(events[2], ProtocolError)
        assert isinstance(events[2].error, ReplayError)

    def test_mixed_hello_and_packets_in_one_chunk(self, key16):
        # The responder's first chunk can carry the hello plus payloads
        # that rode in behind it; the batch path must not touch the
        # hello and must decrypt the run that follows.
        initiator = LinkProtocol(key16, "initiator", session_id=SID)
        responder = LinkProtocol(key16, "responder")
        hello = initiator.data_to_send()
        # Pre-open the initiator's view of the link via a twin pair to
        # mint valid packets for the same session id and keys.
        twin = LinkPair(key16, session_id=SID)
        twin.handshake()
        twin.initiator.send_payload(b"rode along")
        chunk = hello + twin.initiator.data_to_send()
        events = responder.receive_data(chunk)
        assert [type(e) for e in events] == [HandshakeComplete,
                                             PayloadReceived]
        assert events[1].payload == b"rode along"


class TestAfterCloseAccounting:
    """Bytes past the peer's clean EOF are dropped *with* accounting."""

    def test_bytes_after_close_counted(self, key16):
        pair = handshaken(key16)
        pair.initiator.send_payload(b"late")
        late = pair.initiator.data_to_send()
        assert pair.responder.receive_eof() == [LinkClosed()]
        assert pair.responder.receive_data(late) == []
        assert pair.responder.bytes_after_close == len(late)
        assert pair.responder.receive_data(b"more") == []
        assert pair.responder.bytes_after_close == len(late) + 4
        # The link is still half-open: the local send side works.
        pair.responder.send_payload(b"reply out")

    def test_after_close_obs_counter_and_log(self, key16, caplog):
        import logging

        from repro.obs import core as obs

        registry = obs.ObsRegistry()
        previous = obs.set_registry(registry)
        try:
            # The drop counts bind at construction: build the pair while
            # the live registry is installed.
            pair = handshaken(key16)
            pair.responder.receive_eof()
            with caplog.at_level(logging.WARNING, logger="repro.link"):
                pair.responder.receive_data(b"zombie bytes")
        finally:
            obs.set_registry(previous if previous.enabled else None)
        exported = registry.snapshot()["counters"]
        assert exported["repro_link_drops_total{reason=after-close}"] == 1
        assert "after_close_drop" in caplog.text


class TestCodecBinding:
    def test_codec_link_carries_policy(self, key16):
        import repro

        with repro.open_codec(key16, engine="fast",
                              rekey_interval=64) as codec:
            proto = codec.link("initiator", session_id=SID)
        assert proto.config.engine == "fast"
        assert proto.config.rekey_interval == 64
        hello = Hello.unpack(proto.data_to_send())
        assert hello.rekey_interval == 64

    def test_codec_linked_ends_interoperate(self, key16):
        import repro

        with repro.open_codec(key16) as codec:
            initiator = codec.link("initiator", session_id=SID)
            responder = codec.link("responder")
        responder.receive_data(initiator.data_to_send())
        initiator.receive_data(responder.data_to_send())
        initiator.send_payload(b"via codec")
        [event] = responder.receive_data(initiator.data_to_send())
        assert event == PayloadReceived(b"via codec", 0)

    def test_closed_codec_refuses_link(self, key16):
        import repro

        codec = repro.open_codec(key16)
        codec.close()
        with pytest.raises(RuntimeError, match="closed"):
            codec.link("initiator")

"""The Codec facade: lifecycle, byte-identity with legacy paths, links.

A round trip through ``repro.api.Codec`` — both engines, packet and
chunked-blob paths, with and without a pool — is byte-identical on the
wire to the low-level entry points it replaced as the front door.
"""

import asyncio

import pytest

import repro
from repro.api import Codec, connect, open_codec, serve
from repro.core.errors import CipherFormatError, UnknownEngineError
from repro.core.stream import (
    ALGORITHM_HHEA,
    decrypt_packet,
    encrypt_packet,
)
from repro.net.session import Session, SessionConfig
from repro.obs import core as obs
from repro.parallel import EncryptionPool, ParallelCodec

PAYLOAD = bytes(i % 251 for i in range(50_000))
SID = b"apitests"


class TestConstruction:
    def test_accepts_key_and_hex(self, key16):
        assert Codec(key16).key is key16
        hex_key = key16.to_hex()
        assert Codec(hex_key).key == key16

    def test_rejects_non_key(self):
        with pytest.raises(TypeError, match="key"):
            Codec(12345)

    def test_unknown_engine_fails_eagerly(self, key16):
        with pytest.raises(UnknownEngineError, match="registered engines"):
            Codec(key16, engine="turbo")

    def test_algorithm_spellings(self, key16):
        assert Codec(key16, algorithm="hhea").algorithm == ALGORITHM_HHEA
        assert Codec(key16, algorithm=ALGORITHM_HHEA).algorithm == ALGORITHM_HHEA
        for bad in ("rot13", 7):
            with pytest.raises(CipherFormatError, match="algorithm"):
                Codec(key16, algorithm=bad)

    def test_bad_workers_and_chunk_size(self, key16):
        with pytest.raises(ValueError):
            Codec(key16, workers=-1)
        with pytest.raises(ValueError):
            Codec(key16, chunk_size=0)

    def test_introspection(self, key16):
        codec = Codec(key16, engine="fast")
        assert codec.engine_name == "fast"
        assert codec.params is key16.params
        assert "fast" in repr(codec)

    def test_open_codec_is_the_front_door(self, key16):
        with open_codec(key16, engine="fast") as codec:
            assert isinstance(codec, Codec)


@pytest.mark.parametrize("engine", ["reference", "fast"])
class TestByteIdentityWithLegacyPaths:
    """The acceptance-criterion differential, per engine."""

    def test_single_packet(self, key16, engine):
        with open_codec(key16, engine=engine) as codec:
            packet = codec.encrypt(PAYLOAD[:2000], nonce=0x5EED)
            assert packet == encrypt_packet(PAYLOAD[:2000], key16,
                                            nonce=0x5EED, engine=engine)
            assert codec.decrypt(packet) == PAYLOAD[:2000]
            assert decrypt_packet(packet, key16,
                                  engine=engine) == PAYLOAD[:2000]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_packet_batch(self, key16, engine, workers):
        payloads = [PAYLOAD[:700], b"", PAYLOAD[700:1500]]
        nonces = [0x11, 0x22, 0x33]
        with open_codec(key16, engine=engine, workers=workers) as codec:
            packets = codec.encrypt_packets(payloads, nonces)
            assert packets == [encrypt_packet(p, key16, nonce=n,
                                              engine=engine)
                               for p, n in zip(payloads, nonces)]
            assert codec.decrypt_packets(packets) == payloads

    def test_blob_inline(self, key16, engine):
        with open_codec(key16, engine=engine, chunk_size=4096) as codec:
            blob = codec.seal_blob(PAYLOAD)
            reference = ParallelCodec(key16, chunk_size=4096,
                                      engine=engine).encrypt_blob(PAYLOAD)
            assert blob == reference
            assert codec.open_blob(blob) == PAYLOAD

    def test_blob_with_pool(self, key16, engine):
        with open_codec(key16, engine=engine, workers=2,
                        chunk_size=4096) as pooled:
            blob = pooled.seal_blob(PAYLOAD)
            assert pooled.open_blob(blob) == PAYLOAD
        with open_codec(key16, engine=engine, chunk_size=4096) as inline:
            assert inline.seal_blob(PAYLOAD) == blob

    def test_batch_with_pool_matches_inline(self, key16, engine):
        payloads = [PAYLOAD[:9000], PAYLOAD[9000:20000], PAYLOAD[:1]]
        nonces = [0x51, 0x52, 0x53]
        with open_codec(key16, engine=engine, workers=2) as pooled:
            packets = pooled.encrypt_packets(payloads, nonces)
            assert pooled.decrypt_packets(packets) == payloads
        with open_codec(key16, engine=engine) as inline:
            assert inline.encrypt_packets(payloads, nonces) == packets

    def test_single_chunk_blob_equals_plain_packet(self, key16, engine):
        with open_codec(key16, engine=engine) as codec:
            small = b"fits in one chunk"
            assert codec.seal_blob(small, base_nonce=0x77) == codec.encrypt(
                small, nonce=0x77)


@pytest.mark.parametrize("workers", [0, 1])
class TestPacketBatches:
    """Batch errors and accounting are the same inline and pooled."""

    def test_nonce_count_mismatch(self, key16, workers):
        with open_codec(key16, workers=workers) as codec:
            with pytest.raises(ValueError, match="nonces"):
                codec.encrypt_packets([b"x"], [])

    def test_invalid_nonce_raises(self, key16, workers):
        with open_codec(key16, workers=workers) as codec:
            with pytest.raises(CipherFormatError, match="nonce"):
                codec.encrypt_packets([b"x", b"y"], [1, 0])
            # A job error is the caller's bug, not a dead worker.
            assert workers == 0 or codec.pool.restarts == 0

    def test_damaged_packet_raises(self, key16, workers):
        with open_codec(key16, workers=workers) as codec:
            packets = codec.encrypt_packets([b"x", b"y"], [1, 2])
            packets[1] = packets[1][:-1]
            with pytest.raises(CipherFormatError):
                codec.decrypt_packets(packets)
            assert workers == 0 or codec.pool.restarts == 0

    def test_counts_one_op_per_batch_call(self, key16, workers):
        previous = obs.set_registry(obs.ObsRegistry())
        try:
            with open_codec(key16, workers=workers) as codec:
                packets = codec.encrypt_packets([b"a", b"b"], [1, 2])
                codec.decrypt_packets(packets)
            ops = {name: value for name, value
                   in obs.get_registry().snapshot()["counters"].items()
                   if name.startswith("repro_codec_ops_total")}
        finally:
            obs.set_registry(previous if previous.enabled else None)
        assert ops == {"repro_codec_ops_total{op=encrypt_packets}": 1,
                       "repro_codec_ops_total{op=decrypt_packets}": 1}


class TestPoolOwnership:
    def test_owned_pool_is_lazy_and_closed(self, key16):
        codec = Codec(key16, workers=1)
        assert codec.pool is None  # not started yet
        codec.encrypt_packets([b"a", b"b"], [1, 2])
        pool = codec.pool
        assert isinstance(pool, EncryptionPool)
        codec.close()
        assert codec.pool is None
        with pytest.raises(RuntimeError):
            pool.executor  # the owned pool really was shut down

    def test_shared_pool_never_closed(self, key16):
        with EncryptionPool(1) as pool:
            with Codec(key16, pool=pool) as codec:
                blob = codec.seal_blob(PAYLOAD[:10_000])
                assert codec.open_blob(blob) == PAYLOAD[:10_000]
                assert codec.pool is pool
            # Codec exit must not have closed the shared pool.
            assert pool.executor is not None

    def test_closed_codec_refuses_all_work(self, key16):
        codec = Codec(key16, workers=1)
        packet = codec.encrypt(b"x", nonce=1)
        codec.close()
        # Use-after-close fails uniformly, not only once a pool would
        # engage — small inline payloads included.
        for call in (lambda: codec.encrypt(b"x", nonce=1),
                     lambda: codec.decrypt(packet),
                     lambda: codec.encrypt_packets([b"a", b"b"], [1, 2]),
                     lambda: codec.decrypt_packets([packet, packet]),
                     lambda: codec.seal_blob(b"x"),
                     lambda: codec.open_blob(packet)):
            with pytest.raises(RuntimeError, match="closed"):
                call()

    def test_workers_zero_never_starts_a_pool(self, key16):
        with Codec(key16) as codec:
            codec.seal_blob(PAYLOAD)
            codec.encrypt_packets([b"a", b"b"], [1, 2])
            assert codec.pool is None

    def test_single_packet_blob_opens_without_starting_pool(self, key16):
        with Codec(key16, workers=2) as codec:
            packet = codec.encrypt(b"tiny", nonce=0x99)
            assert codec.open_blob(packet) == b"tiny"
            assert codec.pool is None  # no workers spawned for one chunk

    def test_unregistered_engine_instance_inline_ok_pooled_rejected(self,
                                                                    key16):
        from repro.core.engines import FastEngine

        class Unregistered(FastEngine):
            name = "unregistered"

        backend = Unregistered()
        # Inline codecs accept any Engine instance...
        with Codec(key16, engine=backend) as codec:
            packet = codec.encrypt(b"inline only", nonce=0x41)
            assert codec.decrypt(packet) == b"inline only"
        # ...but pooled ones must be re-resolvable by name in workers,
        # and fail eagerly at construction, not mid-batch.
        with pytest.raises(UnknownEngineError, match="register_engine"):
            Codec(key16, engine=backend, workers=2)


class TestSessionConfigDerivation:
    def test_fields_propagate(self, key16):
        codec = Codec(key16, engine="fast", workers=3, rekey_interval=64,
                      max_payload=4096, parallel_threshold=2048,
                      algorithm="hhea")
        config = codec.session_config()
        assert config == SessionConfig(
            algorithm=ALGORITHM_HHEA, rekey_interval=64, max_payload=4096,
            engine="fast", parallel_workers=3, parallel_threshold=2048)

    def test_session_accepts_codec(self, key16):
        codec = Codec(key16, engine="fast", rekey_interval=16)
        session = Session(codec, "initiator", SID)
        assert session.config.rekey_interval == 16
        assert session.config.engine == "fast"
        # Byte-identical to a session built the long way.
        long_way = Session(key16, "initiator", SID,
                           config=codec.session_config())
        assert session.encrypt(b"payload") == long_way.encrypt(b"payload")


class TestLinkHelpers:
    def run(self, coroutine):
        asyncio.run(coroutine)

    def test_connect_serve_round_trip(self, key16):
        async def body():
            codec = open_codec(key16, engine="fast")
            async with serve(codec, port=0) as server:
                async with connect(codec, port=server.port,
                                   session_id=SID) as client:
                    assert await client.request(b"facade link") == b"facade link"
            assert server.errors == []

        self.run(body())

    def test_serve_custom_handler(self, key16):
        async def body():
            codec = open_codec(key16)
            async with serve(codec, port=0,
                             handler=lambda p: p[::-1]) as server:
                async with connect(codec, port=server.port,
                                   session_id=SID) as client:
                    assert await client.request(b"abc") == b"cba"

        self.run(body())

    def test_server_and_client_accept_codec_directly(self, key16):
        from repro.net import SecureLinkClient, SecureLinkServer

        async def body():
            codec = open_codec(key16, rekey_interval=32)
            async with SecureLinkServer(codec, port=0) as server:
                async with SecureLinkClient(codec, port=server.port,
                                            session_id=SID) as client:
                    assert await client.request(b"direct") == b"direct"
                    assert client.session.config.rekey_interval == 32

        self.run(body())

    def test_codec_plus_legacy_kwargs_is_an_error(self, key16):
        # Engine and pool sizing are codec options only; the link
        # helpers have no keyword of their own for either.
        codec = open_codec(key16)
        with pytest.raises(TypeError, match="engine"):
            connect(codec, engine="fast")
        with pytest.raises(TypeError, match="parallel_workers"):
            serve(codec, parallel_workers=2)


class TestTopLevelExports:
    def test_facade_reexports(self):
        assert repro.open_codec is open_codec
        assert repro.connect is connect
        assert repro.serve is serve
        assert repro.Codec is Codec
        for name in ("Codec", "open_codec", "connect", "serve",
                     "register_engine", "get_engine", "registered_engines",
                     "UnknownEngineError"):
            assert name in repro.__all__


class TestKexFacade:
    def run(self, coroutine):
        asyncio.run(coroutine)

    def pump(self, initiator, responder):
        while initiator.bytes_to_send or responder.bytes_to_send:
            responder.receive_data(initiator.data_to_send())
            initiator.receive_data(responder.data_to_send())

    def test_codec_link_negotiates_ecdh(self, key16):
        codec = open_codec(key16)
        initiator = codec.link("initiator", session_id=SID, kex="ecdh")
        responder = codec.link("responder", kex="ecdh")
        self.pump(initiator, responder)
        assert initiator.kex_mode == responder.kex_mode == "ecdh"
        assert initiator.fingerprint == responder.fingerprint

    def test_codec_link_resumes_from_an_issued_ticket(self, key16):
        codec = open_codec(key16)
        responder = codec.link("responder", kex="ecdh")
        initiator = codec.link("initiator", session_id=SID, kex="ecdh")
        self.pump(initiator, responder)
        ticket = initiator.issued_ticket
        assert ticket is not None
        # The vault sealing secret is derived from the codec's key, so
        # even a *fresh* responder (think: restarted server) can unseal
        # the ticket and resume.
        again = codec.link("initiator", session_id=SID, kex="ecdh",
                           ticket=ticket)
        fresh = codec.link("responder", kex="ecdh")
        self.pump(again, fresh)
        assert again.kex_mode == fresh.kex_mode == "resume"
        assert again.fingerprint != initiator.fingerprint

    def test_psk_spelling_matches_none(self, key16):
        codec = open_codec(key16)
        initiator = codec.link("initiator", session_id=SID, kex="psk")
        responder = codec.link("responder")
        self.pump(initiator, responder)
        assert initiator.kex_mode == responder.kex_mode == "psk"

    def test_ticket_without_kex_is_rejected(self, key16):
        codec = open_codec(key16)
        with pytest.raises(ValueError, match="kex='ecdh'"):
            codec.link("initiator", ticket=object())

    def test_unknown_kex_selector_rejected(self, key16):
        codec = open_codec(key16)
        with pytest.raises(ValueError, match="unknown kex selector"):
            codec.link("initiator", kex="rsa")

    def test_serve_connect_negotiate_and_resume(self, key16):
        async def body():
            codec = open_codec(key16)
            async with serve(codec, port=0, kex="ecdh") as server:
                async with connect(codec, port=server.port, session_id=SID,
                                   kex="ecdh") as client:
                    assert await client.request(b"kex") == b"kex"
                    assert client.kex_mode == "ecdh"
                    ticket = client.issued_ticket
                assert ticket is not None
                async with connect(codec, port=server.port, session_id=SID,
                                   kex="ecdh", ticket=ticket) as client:
                    assert await client.request(b"again") == b"again"
                    assert client.kex_mode == "resume"
            assert server.errors == []

        self.run(body())

    def test_classic_client_still_speaks_to_a_kex_server(self, key16):
        async def body():
            codec = open_codec(key16)
            async with serve(codec, port=0, kex="ecdh") as server:
                async with connect(codec, port=server.port,
                                   session_id=SID) as client:
                    assert await client.request(b"psk") == b"psk"
                    assert client.kex_mode == "psk"

        self.run(body())

    def test_udp_transport_refuses_kex(self, key16):
        codec = open_codec(key16)
        with pytest.raises(ValueError, match="udp"):
            serve(codec, transport="udp", kex="ecdh")
        with pytest.raises(ValueError, match="udp"):
            connect(codec, transport="udp", kex="ecdh")

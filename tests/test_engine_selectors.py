"""One way to choose an engine: ``str | Engine | None``, resolved once.

Every entry point that resolves an engine goes through
:func:`repro.core.engines.get_engine`, so

1. a name is accepted **silently** and gives wire bytes identical to the
   :class:`repro.api.Codec` path and to the engine object, and
2. the link endpoints take their engine only from a ``SessionConfig``
   or a ``Codec``: the removed keyword spellings (``engine=`` on the
   server/client, ``engine=``/``parallel_workers=`` on ``connect`` and
   ``serve``) fail with the signature's ``TypeError``,

while the facade paths stay warning-free.  Checked over both engines.
"""

import contextlib
import warnings

import pytest

from repro.api import Codec, connect, open_codec, serve
from repro.core.engines import DEFAULT_ENGINE_NAME, get_engine
from repro.core.stream import decrypt_packet, encrypt_packet
from repro.net import SecureLinkClient, SecureLinkServer
from repro.net.session import Session, SessionConfig
from repro.parallel import ParallelCodec

PAYLOAD = bytes(i % 241 for i in range(10_000))


@contextlib.contextmanager
def no_deprecations():
    """Fail the test on any DeprecationWarning raised inside the block."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


@pytest.fixture(params=["reference", "fast"])
def engine(request):
    return request.param


@pytest.fixture
def codec(key16, engine):
    with open_codec(key16, engine=engine) as bound:
        yield bound


class TestStreamSelectors:
    def test_encrypt_packet_name_matches_codec(self, key16, engine, codec):
        with no_deprecations():
            packet = encrypt_packet(PAYLOAD[:900], key16, nonce=0x5EED,
                                    engine=engine)
        assert packet == codec.encrypt(PAYLOAD[:900], nonce=0x5EED)
        assert packet == encrypt_packet(PAYLOAD[:900], key16, nonce=0x5EED,
                                        engine=get_engine(engine))

    def test_decrypt_packet_name_matches_codec(self, key16, engine, codec):
        packet = codec.encrypt(PAYLOAD[:900], nonce=0x5EED)
        with no_deprecations():
            payload = decrypt_packet(packet, key16, engine=engine)
        assert payload == PAYLOAD[:900]

    def test_packet_batches_by_name_match_codec(self, key16, engine, codec):
        payloads = [b"one", b"two", b"three"]
        nonces = [0x21, 0x22, 0x23]
        with no_deprecations():
            packets = [encrypt_packet(p, key16, nonce=n, engine=engine)
                       for p, n in zip(payloads, nonces)]
            assert [decrypt_packet(p, key16, engine=engine)
                    for p in packets] == payloads
        assert packets == codec.encrypt_packets(payloads, nonces)
        assert codec.decrypt_packets(packets) == payloads

    def test_default_and_object_selectors_stay_silent(self, key16, engine):
        with no_deprecations():
            packet = encrypt_packet(b"silent", key16, nonce=0x31)
            assert packet == encrypt_packet(b"silent", key16, nonce=0x31,
                                            engine=DEFAULT_ENGINE_NAME)
            assert decrypt_packet(packet, key16) == b"silent"
            backend = get_engine(engine)
            packet = encrypt_packet(b"silent", key16, engine=backend)
            assert decrypt_packet(packet, key16, engine=backend) == b"silent"


class TestParallelCodecSelector:
    def test_name_is_silent_and_matches_codec(self, key16, engine):
        with no_deprecations():
            named = ParallelCodec(key16, chunk_size=2048, engine=engine)
        assert named.engine == engine
        blob = named.encrypt_blob(PAYLOAD)
        with open_codec(key16, engine=engine, chunk_size=2048) as bound:
            assert bound.seal_blob(PAYLOAD) == blob
            assert bound.open_blob(blob) == PAYLOAD

    def test_default_is_silent_and_matches_codec_default(self, key16):
        with no_deprecations():
            default = ParallelCodec(key16, chunk_size=2048)
        assert default.engine == DEFAULT_ENGINE_NAME
        with open_codec(key16, chunk_size=2048) as bound:
            assert default.encrypt_blob(PAYLOAD) == bound.seal_blob(PAYLOAD)


class TestLinkSelectors:
    def test_server_engine_comes_from_config_or_codec(self, key16, engine):
        with pytest.raises(TypeError, match="engine"):
            SecureLinkServer(key16, engine=engine)
        with no_deprecations():
            server = SecureLinkServer(key16,
                                      config=SessionConfig(engine=engine))
            assert server._config.engine == engine
            server = SecureLinkServer(Codec(key16, engine=engine))
            assert server._config.engine == engine

    def test_client_engine_comes_from_config_or_codec(self, key16, engine):
        with pytest.raises(TypeError, match="engine"):
            SecureLinkClient(key16, engine=engine)
        with no_deprecations():
            client = SecureLinkClient(key16,
                                      config=SessionConfig(engine=engine))
            assert client._config.engine == engine
            client = SecureLinkClient(Codec(key16, engine=engine))
            assert client._config.engine == engine

    def test_connect_has_no_engine_or_pool_keywords(self, key16, engine):
        with pytest.raises(TypeError, match="engine"):
            connect(key16, engine=engine)
        with pytest.raises(TypeError, match="parallel_workers"):
            connect(key16.to_hex(), parallel_workers=2)

    def test_serve_has_no_engine_or_pool_keywords(self, key16, engine):
        with pytest.raises(TypeError, match="engine"):
            serve(key16, engine=engine)
        with pytest.raises(TypeError, match="parallel_workers"):
            serve(key16.to_hex(), parallel_workers=2)

    def test_connect_serve_with_codec_stay_silent(self, key16, engine):
        with no_deprecations():
            codec = open_codec(key16, engine=engine)
            connect(codec)
            serve(codec)

    def test_link_config_is_the_codec_config(self, key16, engine):
        codec = Codec(key16, engine=engine, workers=2)
        assert connect(codec)._config == codec.session_config()
        assert serve(codec)._config == codec.session_config()
        # A bare key (or its hex form) builds the default codec.
        default = Codec(key16).session_config()
        assert connect(key16)._config == default
        assert serve(key16.to_hex())._config == default


class TestFacadeIsWarningFree:
    """The whole facade lifecycle under DeprecationWarning-as-error."""

    def test_codec_lifecycle_never_warns(self, key16, engine):
        with no_deprecations():
            with open_codec(key16, engine=engine, workers=1,
                            chunk_size=2048) as codec:
                packet = codec.encrypt(b"quiet", nonce=0x31)
                assert codec.decrypt(packet) == b"quiet"
                blob = codec.seal_blob(PAYLOAD)
                assert codec.open_blob(blob) == PAYLOAD
                packets = codec.encrypt_packets([b"a", b"b"], [1, 2])
                assert codec.decrypt_packets(packets) == [b"a", b"b"]

    def test_session_paths_never_warn(self, key16, engine):
        with no_deprecations():
            codec = Codec(key16, engine=engine, rekey_interval=4)
            sender = Session(codec, "initiator", b"seltests")
            receiver = Session(codec, "responder", b"seltests")
            for i in range(9):  # crosses two rekey boundaries
                payload = bytes([i]) * 50
                assert receiver.decrypt(sender.encrypt(payload)) == payload

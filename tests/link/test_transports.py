"""The pluggable transports all drive one LinkProtocol — prove it.

Round trips through the in-memory pair, the blocking-socket peers and
the UDP datagram peers, for both engines; plus the cross-transport
matrix the sans-IO split makes possible (a blocking client against the
asyncio server) and the ``repro.serve``/``repro.connect`` ``transport=``
wiring.
"""

import asyncio
import socket

import pytest

import repro
from repro.core.errors import HandshakeError, SessionError
from repro.core.key import Key
from repro.link import (
    LinkPair,
    MemoryLinkServer,
    SyncLinkClient,
    SyncLinkServer,
    UdpLinkClient,
    UdpLinkServer,
)
from repro.net import SecureLinkServer
from repro.net.session import SessionConfig

SID = b"transsid"

PAYLOADS = [b"", b"alpha", b"beta " * 200, bytes(range(256))]

ENGINES = ("reference", "fast")


def run(coro):
    """Run one async test body on a fresh event loop."""
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


@pytest.mark.parametrize("engine", ENGINES)
class TestMemoryTransport:
    def test_round_trip_through_link_pair(self, key16, engine):
        config = SessionConfig(engine=engine, rekey_interval=3)
        with MemoryLinkServer(key16, config=config) as server:
            with server.connect(session_id=SID) as client:
                assert client.send_all(PAYLOADS) == PAYLOADS
                assert client.metrics.tx.packets == len(PAYLOADS)
                assert client.metrics.tx.rekeys == 1
        assert server.metrics.total_sessions == 1
        assert server.metrics.aggregate()[1].packets == len(PAYLOADS)

    def test_handler_transforms(self, key16, engine):
        config = SessionConfig(engine=engine)
        with MemoryLinkServer(key16, config=config,
                              handler=bytes.upper) as server:
            with server.connect() as client:
                assert client.request(b"shout") == b"SHOUT"

    def test_sessions_isolated_per_connection(self, key16, engine):
        config = SessionConfig(engine=engine)
        with MemoryLinkServer(key16, config=config) as server:
            one = server.connect(session_id=b"A" * 8)
            two = server.connect(session_id=b"B" * 8)
            assert one.request(b"same") == b"same"
            assert two.request(b"same") == b"same"
            assert (one.session.encrypt(b"probe")
                    != two.session.encrypt(b"probe"))

    def test_wrong_client_key_fails_like_every_other_transport(self, key16,
                                                               engine):
        # The in-memory handshake genuinely negotiates: a client codec
        # with a different key must fail exactly as it would over a
        # socket, not silently inherit the server's material.
        other = Key.generate(seed=8080, n_pairs=16)
        config = SessionConfig(engine=engine)
        with MemoryLinkServer(key16, config=config) as server:
            with pytest.raises(HandshakeError, match="fingerprint"):
                server.connect(session_id=SID, root=other, config=config)
            assert any("fingerprint" in err for err in server.errors)
            assert server.metrics.total_sessions == 0  # no slot for failures


@pytest.mark.parametrize("engine", ENGINES)
class TestSyncTransport:
    def test_round_trip(self, key16, engine):
        config = SessionConfig(engine=engine, rekey_interval=3)
        with SyncLinkServer(key16, port=0, config=config) as server:
            with SyncLinkClient(key16, port=server.port, config=config,
                                session_id=SID) as client:
                assert client.send_all(PAYLOADS) == PAYLOADS
                assert client.metrics.rx.rekeys == 1
        assert server.errors == []

    def test_two_sequential_clients(self, key16, engine):
        config = SessionConfig(engine=engine)
        with SyncLinkServer(key16, port=0, config=config) as server:
            for tag in (b"A", b"B"):
                with SyncLinkClient(key16, port=server.port, config=config,
                                    session_id=tag * 8) as client:
                    assert client.request(tag) == tag
            assert server.metrics.total_sessions == 2

    def test_wrong_key_raises_and_closes_socket(self, key16, engine):
        other = Key.generate(seed=31337, n_pairs=16)
        config = SessionConfig(engine=engine)
        with SyncLinkServer(key16, port=0, config=config) as server:
            client = SyncLinkClient(other, port=server.port, config=config,
                                    session_id=SID)
            with pytest.raises(HandshakeError):
                client.connect()
            assert client._sock is None  # no leaked transport
        assert any("fingerprint" in err for err in server.errors)


class TestSyncAgainstAsyncio:
    """The matrix cell the old welded design made impossible."""

    def test_blocking_client_against_asyncio_server(self, key16):
        async def body():
            async with SecureLinkServer(key16, port=0) as server:
                port = server.port

                def blocking_side():
                    with SyncLinkClient(key16, port=port,
                                        session_id=SID) as client:
                        return client.send_all(PAYLOADS)

                return await asyncio.get_running_loop().run_in_executor(
                    None, blocking_side)

        assert run(body()) == PAYLOADS

    def test_asyncio_client_against_threaded_sync_server(self, key16):
        with SyncLinkServer(key16, port=0) as server:
            async def body():
                from repro.net import SecureLinkClient

                async with SecureLinkClient(key16, port=server.port,
                                            session_id=SID) as client:
                    return await client.send_all(PAYLOADS)

            assert run(body()) == PAYLOADS


@pytest.mark.parametrize("engine", ENGINES)
class TestUdpTransport:
    def test_round_trip(self, key16, engine):
        config = SessionConfig(engine=engine, rekey_interval=3)
        with UdpLinkServer(key16, port=0, config=config) as server:
            with UdpLinkClient(key16, port=server.port, config=config,
                               session_id=SID) as client:
                assert client.send_all(PAYLOADS) == PAYLOADS
        assert server.errors == []

    def test_two_peers_namespaced_by_address(self, key16, engine):
        config = SessionConfig(engine=engine)
        with UdpLinkServer(key16, port=0, config=config) as server:
            with UdpLinkClient(key16, port=server.port, config=config,
                               session_id=b"A" * 8) as one:
                with UdpLinkClient(key16, port=server.port, config=config,
                                   session_id=b"B" * 8) as two:
                    assert one.request(b"one") == b"one"
                    assert two.request(b"two") == b"two"
            assert server.metrics.total_sessions == 2


class TestUdpBestEffort:
    def test_replayed_datagrams_are_absorbed(self, key16):
        """A hostile replayer on the wire costs throughput, not the link."""
        with UdpLinkServer(key16, port=0) as server:
            with UdpLinkClient(key16, port=server.port,
                               session_id=SID) as client:
                raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                try:
                    # Capture one legit exchange, then replay the
                    # client's packet from a second socket: the server
                    # mints a fresh protocol for the unknown address and
                    # fails its handshake, while the real session rolls.
                    assert client.request(b"first") == b"first"
                    packet = client.session.encrypt(b"replay bait")
                    client._proto.send_packet(packet)
                    [datagram] = client._proto.datagrams_to_send()
                    client._sock.send(datagram)
                    raw.sendto(datagram, ("127.0.0.1", server.port))
                    reply = client._sock.recv(65535)
                    events = client._proto.receive_datagram(reply)
                    assert events[0].payload == b"replay bait"
                finally:
                    raw.close()

    def test_handler_exception_does_not_kill_the_server(self, key16):
        calls = []

        def fragile(payload: bytes) -> bytes:
            calls.append(payload)
            if payload == b"poison":
                raise RuntimeError("handler bug")
            return payload

        with UdpLinkServer(key16, port=0, handler=fragile) as server:
            with UdpLinkClient(key16, port=server.port, session_id=b"A" * 8,
                               timeout=0.3) as bad:
                with pytest.raises(socket.timeout):
                    bad.request(b"poison")  # reply never comes
            # The serving thread survived: a fresh peer still works.
            with UdpLinkClient(key16, port=server.port,
                               session_id=b"B" * 8) as good:
                assert good.request(b"still alive") == b"still alive"
            assert any("handler bug" in err for err in server.errors)

    def test_peer_table_evicts_stalest_at_capacity(self, key16,
                                                   monkeypatch):
        # UDP has no close signal, so a long-lived server must keep
        # accepting fresh clients past MAX_PEERS lifetime sessions by
        # evicting the least-recently-active one — never by refusing.
        import repro.link.udp as udp_module

        monkeypatch.setattr(udp_module, "MAX_PEERS", 2)
        with UdpLinkServer(key16, port=0) as server:
            for tag in (b"A", b"B", b"C", b"D"):
                with UdpLinkClient(key16, port=server.port,
                                   session_id=tag * 8) as client:
                    assert client.request(tag) == tag
            assert len(server._peers) <= 2
        assert server.errors == []

    def test_junk_datagrams_allocate_no_peer_state(self, key16):
        with UdpLinkServer(key16, port=0) as server:
            raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                for i in range(50):  # a spoof-ish flood of non-hellos
                    raw.sendto(b"\x00junk %d" % i, ("127.0.0.1", server.port))
                with UdpLinkClient(key16, port=server.port,
                                   session_id=SID) as client:
                    assert client.request(b"real") == b"real"
            finally:
                raw.close()
            # Only the real hello earned per-peer state.
            assert len(server._peers) == 1

    def test_lost_reply_surfaces_as_timeout(self, key16):
        with UdpLinkServer(key16, port=0) as server:
            port = server.port
        # Server gone: the hello datagram vanishes into the void.
        client = UdpLinkClient(key16, port=port, session_id=SID,
                               timeout=0.2)
        with pytest.raises(HandshakeError, match="hello reply"):
            client.connect()
        assert client._sock is None


class TestFacadeTransports:
    def test_serve_connect_sync(self, key16):
        codec = repro.open_codec(key16, engine="fast")
        with repro.serve(codec, transport="sync") as server:
            with repro.connect(codec, port=server.port, transport="sync",
                               session_id=SID) as client:
                assert client.request(b"facade sync") == b"facade sync"

    def test_serve_connect_udp(self, key16):
        codec = repro.open_codec(key16)
        with repro.serve(codec, transport="udp") as server:
            with repro.connect(codec, port=server.port, transport="udp",
                               session_id=SID) as client:
                assert client.request(b"facade udp") == b"facade udp"

    def test_serve_connect_memory(self, key16):
        codec = repro.open_codec(key16)
        server = repro.serve(codec, transport="memory")
        with repro.connect(codec, transport="memory", server=server,
                           session_id=SID) as client:
            assert client.send_all([b"a", b"b"]) == [b"a", b"b"]

    def test_unknown_transport_rejected(self, key16):
        codec = repro.open_codec(key16)
        with pytest.raises(ValueError, match="unknown transport"):
            repro.serve(codec, transport="carrier-pigeon")
        with pytest.raises(ValueError, match="unknown transport"):
            repro.connect(codec, transport="quic")

    def test_facade_memory_connect_uses_client_codec(self, key16):
        other = Key.generate(seed=8081, n_pairs=16)
        server_codec = repro.open_codec(key16)
        client_codec = repro.open_codec(other)
        server = repro.serve(server_codec, transport="memory")
        with pytest.raises(HandshakeError):
            repro.connect(client_codec, transport="memory", server=server,
                          session_id=SID)

    def test_memory_connect_needs_server(self, key16):
        codec = repro.open_codec(key16)
        with pytest.raises(ValueError, match="memory"):
            repro.connect(codec, transport="memory")

    def test_server_kwarg_only_for_memory(self, key16):
        codec = repro.open_codec(key16)
        with pytest.raises(ValueError, match="server="):
            repro.connect(codec, transport="tcp", server=object())

    def test_inline_transports_reject_workers(self, key16):
        codec = repro.open_codec(key16, workers=2)
        for transport in ("sync", "udp", "memory"):
            with pytest.raises(SessionError, match="inline"):
                repro.serve(codec, transport=transport)
        codec.close()

"""End-to-end asyncio tests: handshake, echo, concurrency, shutdown."""

import asyncio

import pytest

from repro.core.errors import HandshakeError
from repro.core.key import Key
from repro.net import SecureLinkClient, SecureLinkServer, SessionConfig


def run(coro):
    """Run one async test body on a fresh event loop."""
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


SID = b"testsid\x00"


class TestEchoRoundTrip:
    def test_single_request(self, key16):
        async def body():
            async with SecureLinkServer(key16, port=0) as server:
                async with SecureLinkClient(key16, port=server.port,
                                            session_id=SID) as client:
                    assert await client.request(b"ping") == b"ping"
        run(body())

    def test_multi_packet_message_byte_exact(self, key16):
        message = bytes(range(256)) * 40
        payloads = [message[i:i + 700] for i in range(0, len(message), 700)]

        async def body():
            async with SecureLinkServer(key16, port=0) as server:
                async with SecureLinkClient(key16, port=server.port,
                                            session_id=SID) as client:
                    replies = await client.send_all(payloads)
                    assert b"".join(replies) == message
                    assert client.metrics.rx.packets == len(payloads)
                # The server retires a session's slot when its connection
                # closes; the lifetime aggregate keeps the counts.
                _, rx = server.metrics.aggregate()
                assert rx.packets == len(payloads)
        run(body())

    def test_payload_near_max_survives_cipher_expansion(self, key16):
        # The cipher expands plaintext several-fold on the wire; the
        # receiving decoder must size its frame limit for the expanded
        # bytes, not the plaintext limit, or legal packets die here.
        config = SessionConfig(max_payload=512)
        payload = bytes(range(256)) + bytes(256)  # 512 bytes, the limit

        async def body():
            async with SecureLinkServer(key16, port=0, config=config) as server:
                async with SecureLinkClient(key16, port=server.port,
                                            config=config,
                                            session_id=SID) as client:
                    assert await client.request(payload) == payload
                assert not server.errors
        run(body())

    def test_rekeying_over_the_wire(self, key16):
        config = SessionConfig(rekey_interval=3)
        payloads = [bytes([i]) * 10 for i in range(10)]

        async def body():
            async with SecureLinkServer(key16, port=0, config=config) as server:
                async with SecureLinkClient(key16, port=server.port,
                                            config=config,
                                            session_id=SID) as client:
                    assert await client.send_all(payloads) == payloads
                    assert client.metrics.tx.rekeys == 3
                    assert client.metrics.rx.rekeys == 3
        run(body())

    def test_custom_handler(self, key16):
        async def body():
            async with SecureLinkServer(key16, port=0,
                                        handler=bytes.upper) as server:
                async with SecureLinkClient(key16, port=server.port,
                                            session_id=SID) as client:
                    assert await client.request(b"shout") == b"SHOUT"
        run(body())

    def test_async_handler(self, key16):
        async def reverse(payload: bytes) -> bytes:
            await asyncio.sleep(0)
            return payload[::-1]

        async def body():
            async with SecureLinkServer(key16, port=0,
                                        handler=reverse) as server:
                async with SecureLinkClient(key16, port=server.port,
                                            session_id=SID) as client:
                    assert await client.request(b"abc") == b"cba"
        run(body())


class TestConcurrentClients:
    def test_many_clients_interleaved(self, key16):
        async def one_client(port, tag):
            session_id = bytes([tag]) * 8
            async with SecureLinkClient(key16, port=port,
                                        session_id=session_id) as client:
                payloads = [bytes([tag, i]) * 30 for i in range(12)]
                assert await client.send_all(payloads) == payloads
                return client.metrics.rx.packets

        async def body():
            async with SecureLinkServer(key16, port=0) as server:
                counts = await asyncio.gather(
                    *(one_client(server.port, tag) for tag in range(8))
                )
                assert counts == [12] * 8
                # Live slots retire as connections tear down, but the
                # lifetime session count and aggregates are stable.
                assert server.metrics.total_sessions == 8
                _, rx = server.metrics.aggregate()
                assert rx.packets == 96
        run(body())

    def test_sessions_are_isolated_per_connection(self, key16):
        # Two clients with different session ids produce different
        # ciphertext for the same plaintext and sequence number.
        async def body():
            async with SecureLinkServer(key16, port=0) as server:
                async with SecureLinkClient(key16, port=server.port,
                                            session_id=b"A" * 8) as one:
                    async with SecureLinkClient(key16, port=server.port,
                                                session_id=b"B" * 8) as two:
                        assert await one.request(b"same") == b"same"
                        assert await two.request(b"same") == b"same"
                        wire_one = one.session.encrypt(b"probe")
                        wire_two = two.session.encrypt(b"probe")
                        assert wire_one != wire_two
        run(body())


class TestHandshakeFailures:
    def test_wrong_key_is_rejected(self, key16):
        other = Key.generate(seed=4242, n_pairs=16)

        async def body():
            async with SecureLinkServer(key16, port=0) as server:
                client = SecureLinkClient(other, port=server.port,
                                          session_id=SID)
                with pytest.raises(HandshakeError):
                    await client.connect()
                # connect() must have closed its own socket on failure.
                assert client._writer is None
                # let the server finish recording the failure
                await asyncio.sleep(0.05)
                assert any("fingerprint" in err for err in server.errors)
        run(body())

    def test_mismatched_rekey_interval_rejected(self, key16):
        async def body():
            server_config = SessionConfig(rekey_interval=100)
            client_config = SessionConfig(rekey_interval=200)
            async with SecureLinkServer(key16, port=0,
                                        config=server_config) as server:
                client = SecureLinkClient(key16, port=server.port,
                                          config=client_config, session_id=SID)
                with pytest.raises(HandshakeError):
                    await client.connect()
                await client.close()
        run(body())

    def test_double_connect_rejected(self, key16):
        async def body():
            async with SecureLinkServer(key16, port=0) as server:
                async with SecureLinkClient(key16, port=server.port,
                                            session_id=SID) as client:
                    with pytest.raises(Exception, match="already connected"):
                        await client.connect()
        run(body())


class TestShutdown:
    def test_close_with_live_connection(self, key16):
        async def body():
            server = SecureLinkServer(key16, port=0)
            await server.start()
            client = SecureLinkClient(key16, port=server.port, session_id=SID)
            await client.connect()
            assert await client.request(b"hello") == b"hello"
            await server.close()  # must not hang with the client still open
            await client.close()
        run(body())

    def test_server_close_is_idempotent(self, key16):
        async def body():
            server = SecureLinkServer(key16, port=0)
            await server.start()
            await server.close()
            await server.close()
        run(body())

    def test_protocol_error_closes_connection_not_server(self, key16):
        async def body():
            async with SecureLinkServer(key16, port=0) as server:
                # A raw-socket peer that sends garbage after the handshake.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                good = SecureLinkClient(key16, port=server.port,
                                        session_id=SID)
                writer.write(b"\x00" * 64)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                assert server.errors  # the bad peer was recorded
                # ...and the server still serves well-behaved clients.
                async with good as client:
                    assert await client.request(b"still up") == b"still up"
        run(body())


class TestTransportLeaks:
    """Regression: every error path must release the StreamWriter."""

    def test_server_closes_writer_after_handshake_error(self, key16,
                                                        monkeypatch):
        from repro.net.server import SecureLinkServer as ServerClass

        writers = []
        original = ServerClass._serve_connection

        async def capture(self, reader, writer):
            writers.append(writer)
            await original(self, reader, writer)

        monkeypatch.setattr(ServerClass, "_serve_connection", capture)
        other = Key.generate(seed=5150, n_pairs=16)

        async def body():
            async with SecureLinkServer(key16, port=0) as server:
                client = SecureLinkClient(other, port=server.port,
                                          session_id=SID)
                with pytest.raises(HandshakeError):
                    await client.connect()
                await asyncio.sleep(0.05)
                assert any("fingerprint" in err for err in server.errors)
            assert writers, "server never saw the connection"
            for writer in writers:
                assert writer.is_closing(), "leaked server-side transport"
            # The failed handshake must not register a metrics slot:
            # only completed sessions are accounted.
            assert server.metrics.sessions == {}
        run(body())

    def test_client_closes_writer_after_handshake_error(self, key16):
        other = Key.generate(seed=5151, n_pairs=16)

        async def body():
            async with SecureLinkServer(key16, port=0) as server:
                client = SecureLinkClient(other, port=server.port,
                                          session_id=SID)
                with pytest.raises(HandshakeError):
                    await client.connect()
                assert client._writer is None and client._reader is None
        run(body())

    def test_client_closes_writer_on_mid_stream_protocol_error(self, key16):
        # A server that completes the handshake and then speaks garbage:
        # the client's send_all must close its own transport before
        # re-raising, so a non-context-manager caller cannot leak it.
        from repro.net.framing import HELLO_SIZE, Hello
        from repro.net.session import key_fingerprint

        async def evil_server(reader, writer):
            hello = Hello.unpack(await reader.readexactly(HELLO_SIZE))
            reply = Hello(algorithm=hello.algorithm, width=hello.width,
                          session_id=hello.session_id,
                          fingerprint=key_fingerprint(key16),
                          rekey_interval=hello.rekey_interval)
            writer.write(reply.pack())
            await writer.drain()
            await reader.read(1 << 16)
            writer.write(b"\x00garbage instead of a packet frame\x00" * 4)
            await writer.drain()

        async def body():
            server = await asyncio.start_server(evil_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                client = SecureLinkClient(key16, port=port, session_id=SID)
                await client.connect()
                with pytest.raises(Exception):
                    await client.send_all([b"payload"])
                assert client._writer is None, (
                    "mid-stream protocol failure leaked the transport"
                )
        run(body())


class TestEngineKwarg:
    def test_engine_override_on_server_and_client(self, key16):
        # The engine is a local SessionConfig knob, never handshake
        # policy: the two ends of one link may run different engines.
        async def body():
            async with SecureLinkServer(
                    key16, port=0,
                    config=SessionConfig(engine="fast")) as server:
                async with SecureLinkClient(
                        key16, port=server.port, session_id=SID,
                        config=SessionConfig(engine="reference")) as client:
                    assert await client.request(b"mixed engines") == b"mixed engines"
                    assert client.session.config.engine == "reference"
            assert server.errors == []
        run(body())

    def test_engine_kwarg_validated(self, key16):
        from repro.core.errors import SessionError

        with pytest.raises(SessionError, match="engine"):
            SecureLinkServer(key16, config=SessionConfig(engine="turbo"))
        with pytest.raises(SessionError, match="engine"):
            SecureLinkClient(key16, config=SessionConfig(engine="turbo"))

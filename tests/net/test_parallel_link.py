"""The secure link with process-pool offload enabled.

Two properties matter: the wire bytes are identical to a non-parallel
endpoint (peers cannot tell what the other side runs), and a link
configured with ``parallel_workers`` still delivers every payload
byte-exactly through handshake, rekeying and replay protection.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import SessionError
from repro.net import (
    SecureLinkClient,
    SecureLinkServer,
    Session,
    SessionConfig,
)
from repro.parallel import EncryptionPool

SESSION_ID = b"PARLINK0"


def run(coro):
    return asyncio.run(coro)


class TestSessionConfigValidation:
    def test_rejects_negative_workers(self, key16):
        with pytest.raises(SessionError):
            SessionConfig(parallel_workers=-1).validate(16)

    def test_rejects_non_positive_threshold(self, key16):
        with pytest.raises(SessionError):
            SessionConfig(parallel_threshold=0).validate(16)

    def test_defaults_validate(self):
        SessionConfig().validate(16)


class TestAsyncEpochs:
    def test_offloaded_encrypts_cross_rekey_epochs_identically(self, key16):
        config = SessionConfig(rekey_interval=3, parallel_threshold=1)
        serial = Session(key16, "initiator", SESSION_ID, config=config)
        payloads = [bytes([i]) * 24 for i in range(8)]

        async def scenario() -> tuple[list[bytes], int]:
            session = Session(key16, "initiator", SESSION_ID, config=config)
            with EncryptionPool(1) as pool:
                packets = [await session.encrypt_async(p, pool)
                           for p in payloads]
            return packets, session.metrics.tx.rekeys

        packets, rekeys = run(scenario())
        assert packets == [serial.encrypt(p) for p in payloads]
        assert rekeys == serial.metrics.tx.rekeys == 2


class TestAsyncSessionOffload:
    def test_async_paths_match_sync_wire_output(self, key16):
        config = SessionConfig(parallel_threshold=64)
        sync_session = Session(key16, "initiator", SESSION_ID)
        payloads = [b"small", b"L" * 4096]

        async def scenario() -> list[bytes]:
            session = Session(key16, "initiator", SESSION_ID, config=config)
            with EncryptionPool(1) as pool:
                return [await session.encrypt_async(p, pool)
                        for p in payloads]

        assert run(scenario()) == [sync_session.encrypt(p) for p in payloads]

    def test_overlapping_pool_encrypts_match_serial_encrypts(self, key16):
        """Calls started in send order may overlap on the pool."""
        config = SessionConfig(parallel_threshold=64)
        serial = Session(key16, "initiator", SESSION_ID)
        payloads = [bytes([i]) * (32 + 48 * i) for i in range(8)]

        async def scenario() -> tuple[list[bytes], Session]:
            session = Session(key16, "initiator", SESSION_ID, config=config)
            with EncryptionPool(2) as pool:
                packets = await asyncio.gather(
                    *(session.encrypt_async(p, pool) for p in payloads))
            return list(packets), session

        packets, parallel = run(scenario())
        assert packets == [serial.encrypt(p) for p in payloads]
        assert parallel.next_send_seq == serial.next_send_seq
        assert (parallel.metrics.tx.payload_bytes
                == serial.metrics.tx.payload_bytes)

    def test_encrypt_async_without_pool_runs_inline(self, key16):
        serial = Session(key16, "initiator", SESSION_ID)
        payloads = [b"one", b"two", b"three"]

        async def scenario() -> list[bytes]:
            session = Session(key16, "initiator", SESSION_ID)
            return [await session.encrypt_async(p) for p in payloads]

        assert run(scenario()) == [serial.encrypt(p) for p in payloads]

    def test_oversized_payload_rejected_before_state_change(self, key16):
        config = SessionConfig(max_payload=16, parallel_threshold=1)

        async def scenario() -> Session:
            session = Session(key16, "initiator", SESSION_ID, config=config)
            with EncryptionPool(1) as pool:
                with pytest.raises(SessionError):
                    await session.encrypt_async(b"x" * 17, pool)
            return session

        session = run(scenario())
        assert session.next_send_seq == 0  # no nonce consumed
        assert session.metrics.tx.payload_bytes == 0

    def test_receiver_decrypts_offloaded_output(self, key16):
        config = SessionConfig(parallel_threshold=8)
        payloads = [bytes([i]) * 64 for i in range(5)]

        async def scenario() -> list[bytes]:
            sender = Session(key16, "initiator", SESSION_ID, config=config)
            receiver = Session(key16, "responder", SESSION_ID, config=config)
            with EncryptionPool(2) as pool:
                packets = [await sender.encrypt_async(p, pool)
                           for p in payloads]
                return [await receiver.decrypt_async(p, pool)
                        for p in packets]

        assert run(scenario()) == payloads

    def test_decrypt_async_enforces_replay_window(self, key16):
        from repro.core.errors import ReplayError

        sender = Session(key16, "initiator", SESSION_ID)
        packet = sender.encrypt(b"once only")

        async def scenario() -> bytes:
            receiver = Session(key16, "responder", SESSION_ID)
            payload = await receiver.decrypt_async(packet, None)
            with pytest.raises(ReplayError):
                await receiver.decrypt_async(packet, None)
            return payload

        assert run(scenario()) == b"once only"


class TestParallelLink:
    def test_echo_with_parallel_workers_both_ends(self, key16):
        config = SessionConfig(parallel_workers=1, parallel_threshold=1024)
        payloads = [b"tiny", bytes(range(256)) * 24, b"x" * 5000]

        async def scenario() -> list[bytes]:
            async with SecureLinkServer(key16, port=0,
                                        config=config) as server:
                async with SecureLinkClient(key16, port=server.port,
                                            config=config,
                                            session_id=SESSION_ID) as client:
                    return await client.send_all(payloads)

        assert run(scenario()) == payloads

    def test_parallel_client_against_plain_server(self, key16):
        """Offload is local: a non-parallel peer must interoperate."""
        client_config = SessionConfig(parallel_workers=1,
                                      parallel_threshold=512)
        payloads = [b"m" * 2048, b"n" * 100]

        async def scenario() -> list[bytes]:
            async with SecureLinkServer(key16, port=0) as server:
                async with SecureLinkClient(key16, port=server.port,
                                            config=client_config,
                                            session_id=SESSION_ID) as client:
                    return await client.send_all(payloads)

        assert run(scenario()) == payloads

    def test_client_reconnect_after_failure_keeps_offload(self, key16):
        """A retried connect() must rebuild the pool close() tore down."""
        from repro.core.errors import HandshakeError
        from repro.core.key import Key

        config = SessionConfig(parallel_workers=1, parallel_threshold=256)
        payload = b"q" * 2048

        async def scenario() -> bytes:
            async with SecureLinkServer(key16, port=0) as server:
                client = SecureLinkClient(key16, port=server.port,
                                          config=config,
                                          session_id=SESSION_ID)
                wrong = SecureLinkClient(Key.generate(seed=9, n_pairs=4),
                                         port=server.port, config=config)
                with pytest.raises(HandshakeError):
                    await wrong.connect()  # close() tears its pool down
                await client.connect()
                try:
                    reply = await client.request(payload)
                finally:
                    await client.close()
                # The failed client can retry and still offload.
                retry = SecureLinkClient(key16, port=server.port,
                                         config=config,
                                         session_id=b"PARLINK1")
                await retry.connect()
                try:
                    assert await retry.request(payload) == payload
                    assert retry._pool is not None
                finally:
                    await retry.close()
                return reply

        assert run(scenario()) == payload

    def test_server_restart_rebuilds_pool(self, key16):
        """close() then start() must serve offloaded payloads again."""
        config = SessionConfig(parallel_workers=1, parallel_threshold=256)
        payload = b"r" * 2048

        async def scenario() -> bytes:
            server = SecureLinkServer(key16, port=0, config=config)
            await server.start()
            await server.close()
            await server.start()  # explicitly allowed; needs a live pool
            try:
                async with SecureLinkClient(key16, port=server.port,
                                            config=config,
                                            session_id=SESSION_ID) as client:
                    return await client.request(payload)
            finally:
                await server.close()

        assert run(scenario()) == payload

    def test_metrics_account_offloaded_traffic(self, key16):
        config = SessionConfig(parallel_workers=1, parallel_threshold=256)
        payload = b"p" * 4096

        async def scenario():
            async with SecureLinkServer(key16, port=0,
                                        config=config) as server:
                async with SecureLinkClient(key16, port=server.port,
                                            config=config,
                                            session_id=SESSION_ID) as client:
                    await client.request(payload)
                    return client.metrics.snapshot()

        snapshot = run(scenario())
        assert snapshot["tx_payload_bytes"] == len(payload)
        assert snapshot["rx_payload_bytes"] == len(payload)
        assert snapshot["rx_crc_failures"] == 0

"""Asyncio secure-link client.

A thin transport adapter over the sans-IO
:class:`repro.link.LinkProtocol`: the machine mints the hello, parses
the reply, frames the stream and runs the session crypto; this module
moves its bytes over an asyncio connection and offers two traffic
shapes:

* :meth:`SecureLinkClient.request` — one payload out, one reply back;
  the simple RPC shape.
* :meth:`SecureLinkClient.send_all` — pipelined: a writer task streams
  every payload while the reader collects replies, so the link stays
  full instead of idling one round-trip per packet.  This is the shape
  `benchmarks/bench_net.py` measures.

Backpressure is inherited from the transport: the writer awaits
``drain()`` after every packet, so a stalled server (its bounded reply
queue full) slows the client down instead of ballooning buffers.
"""

from __future__ import annotations

import asyncio
import os
from collections import deque

from repro.core.errors import ReproError, SessionError
from repro.link.events import (
    HandshakeComplete,
    LinkClosed,
    PacketReceived,
    PayloadReceived,
    ProtocolError,
)
from repro.link.protocol import LinkProtocol, _resolve_root
from repro.net.metrics import SessionMetrics
from repro.net.session import Session, SessionConfig
from repro.obs import core as _obs
from repro.parallel.pool import EncryptionPool

__all__ = ["SecureLinkClient"]

_READ_CHUNK = 1 << 16

#: Queued frame bytes that trigger a flush on the inline write path.
#: Coalescing keeps one write+drain per burst instead of one per
#: payload while bounding how much ciphertext sits in the machine.
_WRITE_BUDGET = 1 << 18


class SecureLinkClient:
    """One secure-link connection from the initiator side.

    Usage::

        async with SecureLinkClient(root_key, port=server.port) as client:
            reply = await client.request(b"payload")

    ``session_id`` is minted from :func:`os.urandom` unless given
    explicitly (tests pass a fixed one for determinism).
    """

    def __init__(self, root, host: str = "127.0.0.1", port: int = 0,
                 config: SessionConfig | None = None,
                 session_id: bytes | None = None, *,
                 kex=None):
        if root is not None:
            root, config = _resolve_root(root, config)
        elif kex is None:
            raise SessionError("a root key is required without a kex config")
        self._kex = kex
        self._root = root
        self._host = host
        self._port = port
        self._config = config or SessionConfig()
        self._config.validate(root.params.width if root is not None
                              else kex.params.width)
        self._session_id = session_id if session_id is not None else os.urandom(8)
        self._pool: EncryptionPool | None = None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._proto: LinkProtocol | None = None
        self._events: deque = deque()
        self.session: Session | None = None

    @property
    def metrics(self) -> SessionMetrics:
        """This connection's session counters (tx/rx, Mbps, rekeys).

        Raises :class:`SessionError` before :meth:`connect` completes;
        stays readable after :meth:`close` for post-run reporting.
        """
        if self.session is None:
            raise SessionError("client not connected")
        return self.session.metrics

    @property
    def kex_mode(self) -> str | None:
        """The negotiated handshake mode (``None`` before connect)."""
        return self._proto.kex_mode if self._proto is not None else None

    @property
    def issued_ticket(self):
        """The resumption ticket the server issued, if any."""
        return self._proto.issued_ticket if self._proto is not None else None

    @property
    def fingerprint(self) -> bytes | None:
        """The session root key's fingerprint (kex: post-handshake)."""
        return self._proto.fingerprint if self._proto is not None else None

    # -- lifecycle --------------------------------------------------------

    async def connect(self) -> None:
        """Open the connection and complete the hello exchange.

        Also (re)starts the cipher pool when the config asks for
        ``parallel_workers`` — including after a failed or closed
        earlier attempt, so a retried ``connect()`` keeps its offload.
        The writer and reader coroutines offload independently, so
        encrypt and decrypt of big transfers overlap on separate
        workers.
        """
        if self.session is not None:
            raise SessionError("client already connected")
        if self._config.parallel_workers > 0 and self._pool is None:
            self._pool = EncryptionPool(self._config.parallel_workers)
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        try:
            self._proto = LinkProtocol(
                self._root, "initiator", config=self._config,
                session_id=self._session_id,
                decrypt_payloads=self._pool is None,
                kex=self._kex,
            )
            self._events.clear()
            self._writer.write(self._proto.data_to_send())  # our opener
            await self._writer.drain()
            while self._proto.handshaking:
                chunk = await self._reader.read(_READ_CHUNK)
                events = (self._proto.receive_eof() if not chunk
                          else self._proto.receive_data(chunk))
                for event in events:
                    if isinstance(event, ProtocolError):
                        raise event.error
                    if not isinstance(event, HandshakeComplete):
                        # Traffic that rode in with the hello reply is
                        # kept for the reader, never dropped.
                        self._events.append(event)
                if self._proto.bytes_to_send:
                    # Multi-round exchanges (the kex phase) queue
                    # replies mid-handshake; flush before reading on.
                    self._writer.write(self._proto.data_to_send())
                    await self._writer.drain()
            self.session = self._proto.session
            _obs.get_registry().counter("repro_client_connects_total").inc()
        except BaseException:
            # A failed handshake must not leak the open socket: __aexit__
            # never runs when __aenter__ raises.
            await self.close()
            raise

    async def close(self) -> None:
        """Close the transport (the session object stays readable)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass
            self._writer = None
            self._reader = None
        if self._proto is not None:
            self._proto.close()
        if self._pool is not None:
            self._pool.close(wait=False)  # never block the event loop
            self._pool = None

    async def __aenter__(self) -> "SecureLinkClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- traffic ----------------------------------------------------------

    async def request(self, payload: bytes) -> bytes:
        """Send one payload and wait for its reply."""
        replies = await self.send_all([payload])
        return replies[0]

    async def send_all(self, payloads: list[bytes],
                       ) -> list[bytes]:
        """Pipeline ``payloads`` out and collect one reply for each.

        Replies arrive in order (TCP ordering plus the server's per-
        connection processing loop), so the result aligns index-for-index
        with the input.  A protocol failure mid-stream closes the
        transport before re-raising — a broken link is unrecoverable, so
        the socket is never left dangling for a caller that skips the
        context manager.
        """
        if self.session is None or self._writer is None:
            raise SessionError("client not connected")
        writer_task = asyncio.create_task(self._write_payloads(payloads))
        try:
            replies = await self._read_replies(len(payloads))
        except (ReproError, OSError):
            if not writer_task.done():
                writer_task.cancel()
            await asyncio.gather(writer_task, return_exceptions=True)
            await self.close()
            raise
        finally:
            if not writer_task.done():
                writer_task.cancel()
            await asyncio.gather(writer_task, return_exceptions=True)
        # Surface a writer failure even if the reader saw a clean close.
        if writer_task.done() and not writer_task.cancelled():
            writer_task.result()
        return replies

    async def _write_payloads(self, payloads: list[bytes]) -> None:
        """Stream every payload, keeping the worker pool saturated.

        Without a pool the sans-IO machine encrypts inline and this is a
        plain feed-and-drain loop.  With a pool, up to ``workers + 1``
        encrypt jobs are kept in flight and the finished packets are
        handed to the machine strictly in task creation order — asyncio
        steps tasks in FIFO creation order, so sequence numbers are
        reserved in that same order and the wire order matches the
        serial path exactly.
        """
        if self._pool is None:
            # Inline-cipher path: let frames pile up in the machine and
            # flush in bursts — one write+drain per _WRITE_BUDGET of
            # ciphertext instead of one per payload.  The server's
            # batched receive path then decrypts each burst through
            # Session.decrypt_batch (docs/net.md, "Link-layer
            # performance").
            for payload in payloads:
                self._proto.send_payload(payload)
                if self._proto.bytes_to_send >= _WRITE_BUDGET:
                    self._writer.write(self._proto.data_to_send())
                    await self._writer.drain()
            if self._proto.bytes_to_send:
                self._writer.write(self._proto.data_to_send())
                await self._writer.drain()
            return
        window = self._pool.workers + 1
        in_flight: list[asyncio.Task] = []

        async def ship(task: asyncio.Task) -> None:
            self._proto.send_packet(await task)
            self._writer.write(self._proto.data_to_send())
            await self._writer.drain()

        try:
            for payload in payloads:
                in_flight.append(asyncio.ensure_future(
                    self.session.encrypt_async(payload, self._pool)))
                if len(in_flight) >= window:
                    await ship(in_flight.pop(0))
            while in_flight:
                await ship(in_flight.pop(0))
        finally:
            for task in in_flight:
                task.cancel()
            if in_flight:
                await asyncio.gather(*in_flight, return_exceptions=True)

    async def _read_replies(self, count: int) -> list[bytes]:
        replies: list[bytes] = []
        while len(replies) < count:
            while self._events and len(replies) < count:
                event = self._events.popleft()
                if isinstance(event, ProtocolError):
                    raise event.error
                if isinstance(event, LinkClosed):
                    raise SessionError(
                        f"server closed the link after {len(replies)} of "
                        f"{count} replies"
                    )
                if isinstance(event, PacketReceived):
                    replies.append(await self.session.decrypt_async(
                        event.packet, self._pool))
                elif isinstance(event, PayloadReceived):
                    replies.append(event.payload)
            if len(replies) >= count:
                break
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                events = self._proto.receive_eof()
                if not events:
                    raise SessionError(
                        f"server closed the link after {len(replies)} of "
                        f"{count} replies"
                    )
                self._events.extend(events)
            else:
                self._events.extend(self._proto.receive_data(chunk))
        return replies

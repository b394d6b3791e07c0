"""Asyncio secure-link server (echo/relay side of the link).

A thin transport adapter: all protocol logic — handshake sequencing,
framing, session crypto, replay windows — lives in the sans-IO
:class:`repro.link.LinkProtocol`; this module only moves that machine's
bytes over asyncio streams.  One :class:`SecureLinkServer` accepts any
number of concurrent clients.  Each connection gets its own protocol
instance (namespaced by the client's session id, so working keys and
nonce schedules never collide across connections) and its own bounded
reply queue: the reader coroutine stops pulling bytes off the socket
while the queue is full, which propagates backpressure to the client
through TCP instead of buffering without limit — the lesson of the ZTEX
link layer, which throttled the host rather than drop candidates.

The default handler echoes payloads back, which is exactly what the
round-trip benchmarks need; pass any ``bytes -> bytes`` callable (sync
or async) to relay or transform instead.
"""

from __future__ import annotations

import asyncio
import inspect
from typing import Awaitable, Callable

from repro.core.errors import ReproError
from repro.link.events import (
    HandshakeComplete,
    LinkClosed,
    PacketReceived,
    PayloadReceived,
    ProtocolError,
)
from repro.link.protocol import LinkProtocol, _resolve_root
from repro.net.metrics import MetricsRegistry
from repro.net.session import SessionConfig
from repro.obs import core as _obs
from repro.obs.logs import log_event
from repro.parallel.pool import EncryptionPool

__all__ = ["SecureLinkServer", "DEFAULT_QUEUE_DEPTH"]

#: Replies a connection may have in flight before its reader stalls.
DEFAULT_QUEUE_DEPTH = 32

#: Socket read granularity (bytes per ``reader.read`` call).
_READ_CHUNK = 1 << 16

Handler = Callable[[bytes], "bytes | Awaitable[bytes]"]


def _echo(payload: bytes) -> bytes:
    """The default handler: send every payload straight back."""
    return payload


class SecureLinkServer:
    """Concurrent multi-session server speaking the secure-link protocol.

    Usage::

        async with SecureLinkServer(root_key, port=0) as server:
            ...  # server.port is the bound port
        # exiting the context closes the listener and drains connections

    Protocol errors on one connection (bad handshake, damaged frames,
    replays) close that connection and are recorded in :attr:`errors`;
    they never take the listener down.

    ``metrics_port`` (non-None) starts a
    :class:`repro.obs.MetricsEndpoint` next to the listener: ``GET
    /metrics`` serves the process-wide obs registry as Prometheus text
    and ``GET /healthz`` reports listener/connection health.  Pass ``0``
    to bind an ephemeral port (read it back from
    ``server.metrics_endpoint.port``).
    """

    def __init__(self, root, host: str = "127.0.0.1", port: int = 0,
                 config: SessionConfig | None = None,
                 handler: Handler = _echo,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 metrics_port: int | None = None,
                 kex=None):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        root, config = _resolve_root(root, config)
        self._kex = kex
        self._root = root
        self._host = host
        self._requested_port = port
        self._config = config or SessionConfig()
        self._config.validate(root.params.width)
        self._handler = handler
        self._queue_depth = queue_depth
        self._pool: EncryptionPool | None = None
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._next_peer = 0
        self.metrics = MetricsRegistry()
        self.errors: list[str] = []
        self._metrics_port = metrics_port
        #: The live :class:`repro.obs.MetricsEndpoint` (``metrics_port``
        #: given and the server started), else ``None``.
        self.metrics_endpoint = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket; sets :attr:`port`.

        Also (re)starts the shared cipher pool when the config asks for
        ``parallel_workers``: one pool serves every connection, so
        payloads of at least ``parallel_threshold`` bytes run on worker
        processes and the event loop stays free for other connections
        while big transfers grind.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        if self._config.parallel_workers > 0 and self._pool is None:
            self._pool = EncryptionPool(self._config.parallel_workers)
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._requested_port
        )
        if self._metrics_port is not None:
            from repro.obs.http import MetricsEndpoint

            self.metrics_endpoint = MetricsEndpoint(
                host=self._host, port=self._metrics_port,
                health=self._health)
            await self.metrics_endpoint.start()

    def _health(self) -> dict:
        """The ``/healthz`` document for the metrics endpoint."""
        return {
            "status": "ok" if self._server is not None else "closed",
            "active_links": len(self._connections),
            "sessions": self.metrics.total_sessions,
            "errors": len(self.errors),
        }

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, cancel live connections, wait for teardown."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._server = None
        if self.metrics_endpoint is not None:
            await self.metrics_endpoint.close()
            self.metrics_endpoint = None
        if self._pool is not None:
            # Non-blocking: a synchronous join would stall the event
            # loop (and every other connection) on in-flight jobs.
            self._pool.close(wait=False)
            self._pool = None  # a later start() builds a fresh one

    async def serve_forever(self) -> None:
        """Block until cancelled (for CLI use)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "SecureLinkServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- per-connection machinery -----------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        name = f"peer-{self._next_peer}"
        self._next_peer += 1
        registry = _obs.get_registry()
        registry.counter("repro_server_accepts_total").inc()
        active = registry.gauge(
            "repro_server_active_links",
            help="Connections currently being served.")
        active.inc()
        try:
            await self._run_connection(name, reader, writer)
        except asyncio.CancelledError:
            pass
        except ReproError as exc:
            self.errors.append(f"{name}: {exc}")
            registry.counter("repro_server_errors_total",
                             kind=type(exc).__name__).inc()
            log_event("repro.net.server", "server.connection_error",
                      level=30, peer=name,
                      error=type(exc).__name__, detail=str(exc))
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            self.errors.append(f"{name}: connection lost ({exc})")
            registry.counter("repro_server_errors_total",
                             kind="connection_lost").inc()
        finally:
            # The transport is always released — handshake failure,
            # protocol damage or clean EOF alike; leaking the socket of
            # a failed connection would exhaust descriptors under churn.
            self._connections.discard(task)
            active.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _run_connection(self, name: str, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        # The sans-IO machine owns the whole protocol; with a pool bound
        # it hands packets over undecrypted (PacketReceived) so the
        # cipher work can be awaited on worker processes.
        proto = LinkProtocol(
            self._root, "responder", config=self._config,
            metrics=lambda: self.metrics.session(name),
            decrypt_payloads=self._pool is None,
            kex=self._kex,
        )
        queue: asyncio.Queue = asyncio.Queue(self._queue_depth)
        sender = asyncio.create_task(self._send_replies(queue, proto, writer))
        try:
            closed = False
            while not closed:
                chunk = await reader.read(_READ_CHUNK)
                events = (proto.receive_eof() if not chunk
                          else proto.receive_data(chunk))
                if proto.bytes_to_send:
                    # The hello reply, queued by the machine during
                    # handshake completion — flushed before any payload
                    # reply can possibly be enqueued below.
                    writer.write(proto.data_to_send())
                    await writer.drain()
                for event in events:
                    if isinstance(event, ProtocolError):
                        raise event.error
                    if isinstance(event, LinkClosed):
                        closed = True
                        break
                    if isinstance(event, HandshakeComplete):
                        continue
                    if isinstance(event, PacketReceived):
                        payload = await proto.session.decrypt_async(
                            event.packet, self._pool)
                    else:  # PayloadReceived (machine decrypted inline)
                        payload = event.payload
                    result = self._handler(payload)
                    if inspect.isawaitable(result):
                        result = await result
                    # Bounded queue: blocks here (and therefore stops
                    # reading the socket) when the writer falls behind.
                    await self._enqueue(queue, result, sender)
                if not chunk:
                    break
            await self._enqueue(queue, None, sender)
            await sender
        finally:
            if not sender.done():
                sender.cancel()
                await asyncio.gather(sender, return_exceptions=True)

    @staticmethod
    async def _enqueue(queue: asyncio.Queue, item, sender: asyncio.Task) -> None:
        """Put ``item`` without deadlocking on a dead reply writer.

        If the sender task has failed, nothing will ever drain the queue
        and a plain ``queue.put`` on a full queue would block forever
        (leaking the connection task and socket); racing the put against
        the sender surfaces the writer's failure instead.
        """
        put = asyncio.ensure_future(queue.put(item))
        done, _ = await asyncio.wait({put, sender},
                                     return_when=asyncio.FIRST_COMPLETED)
        if put in done:
            return
        put.cancel()
        await asyncio.gather(put, return_exceptions=True)
        await sender  # raises the writer's failure...
        raise ConnectionError("reply writer exited before the stream ended")

    async def _send_replies(self, queue: asyncio.Queue, proto: LinkProtocol,
                            writer: asyncio.StreamWriter) -> None:
        while True:
            batch = [await queue.get()]
            # Coalesce every reply already waiting: the machine queues
            # them all, then one write+drain flushes the burst — one
            # syscall round per wakeup instead of one per payload.
            while True:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            finished = False
            for payload in batch:
                if payload is None:
                    finished = True
                    break
                if self._pool is not None:
                    proto.send_packet(await proto.session.encrypt_async(
                        payload, self._pool))
                else:
                    proto.send_payload(payload)
            if proto.bytes_to_send:
                writer.write(proto.data_to_send())
                await writer.drain()
            if finished:
                break

"""Asyncio adapter for the sans-IO relay core (plus a relay client).

The PR 5 split, applied to the hub: every protocol and policy decision
lives in :class:`~repro.relay.RelayCore`; this module only moves bytes
between asyncio streams and that machine.  Per connection there are two
tasks — a reader feeding :meth:`RelayCore.receive_data` and a writer
draining :meth:`RelayCore.data_to_send` — joined by an
:class:`asyncio.Event` the core pings through its ``on_egress`` hook
whenever routing queues new output for the link.  A periodic poll task
ticks the core's deadline sweep (handshake/idle timeouts) so a relay
full of silent links still sheds.

Backpressure is the egress queue itself: the writer awaits
``writer.drain()``, so a stalled TCP peer stops the drain loop, the
core's bounded plaintext queue fills, and the configured egress policy
(drop-oldest or disconnect) applies — the relay never buffers without
limit on behalf of a slow reader.
"""

from __future__ import annotations

import asyncio

from repro.kex.handshake import KexConfig
from repro.kex.keyring import TenantKeyring
from repro.link.events import PayloadReceived, ProtocolError
from repro.link.protocol import LinkProtocol
from repro.net.session import SessionConfig
from repro.relay.config import RelayConfig
from repro.relay.core import RelayCore

__all__ = ["RelayServer", "RelayClient"]

#: Socket read granularity (bytes per ``reader.read`` call).
_READ_CHUNK = 1 << 16


class RelayServer:
    """TCP front end for a :class:`~repro.relay.RelayCore`.

    Usage::

        async with RelayServer(keyring, port=0) as server:
            ...  # server.port is bound; server.core holds the policy

    ``metrics_port`` starts a :class:`repro.obs.MetricsEndpoint`
    (``/metrics`` + ``/healthz``) next to the listener, the same shape
    :class:`repro.net.SecureLinkServer` exposes.
    """

    def __init__(self, keyring: TenantKeyring, host: str = "127.0.0.1",
                 port: int = 0, *, config: "RelayConfig | None" = None,
                 metrics_port: "int | None" = None,
                 poll_interval_s: float = 1.0):
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be > 0")
        self.core = RelayCore(keyring, config, on_egress=self._wake)
        self._host = host
        self._requested_port = port
        self._metrics_port = metrics_port
        self._poll_interval = poll_interval_s
        self._server: "asyncio.base_events.Server | None" = None
        self._poll_task: "asyncio.Task | None" = None
        self._connections: set = set()
        self._wakeups: dict = {}
        self._writers: dict = {}
        self.metrics_endpoint = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the deadline-poll task."""
        if self._server is not None:
            raise RuntimeError("relay server already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._requested_port)
        self._poll_task = asyncio.create_task(self._poll_loop())
        if self._metrics_port is not None:
            from repro.obs.http import MetricsEndpoint

            self.metrics_endpoint = MetricsEndpoint(
                host=self._host, port=self._metrics_port,
                health=self._health)
            await self.metrics_endpoint.start()

    def _health(self) -> dict:
        """The ``/healthz`` document: the core's stats snapshot."""
        status = "ok" if self._server is not None else "closed"
        return {"status": status, **self.core.stats()}

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("relay server not started")
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, shed every live link, tear the tasks down."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._poll_task is not None:
            self._poll_task.cancel()
            await asyncio.gather(self._poll_task, return_exceptions=True)
            self._poll_task = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self.metrics_endpoint is not None:
            await self.metrics_endpoint.close()
            self.metrics_endpoint = None

    async def serve_forever(self) -> None:
        """Block until cancelled (for CLI use)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "RelayServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- per-connection machinery ------------------------------------------

    def _wake(self, link_id: int) -> None:
        event = self._wakeups.get(link_id)
        if event is not None:
            event.set()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        link_id = None
        try:
            link_id, _ = self.core.connection_made()
            if link_id is None:
                return  # refused at the door: close without a byte
            wakeup = asyncio.Event()
            self._wakeups[link_id] = wakeup
            self._writers[link_id] = writer
            sender = asyncio.create_task(
                self._drain_egress(link_id, wakeup, writer))
            try:
                while True:
                    chunk = await reader.read(_READ_CHUNK)
                    if not chunk:
                        self.core.receive_eof(link_id)
                        break
                    self.core.receive_data(link_id, chunk)
                    # Handshake replies and JOIN acks queue on our own
                    # link; routed traffic pings *other* links via the
                    # on_egress hook.
                    wakeup.set()
                    if not self.core.has_link(link_id):
                        break
            finally:
                self.core.close_link(link_id)
                wakeup.set()  # unblock the sender so it can exit
                await asyncio.gather(sender, return_exceptions=True)
        except (ConnectionError, asyncio.IncompleteReadError):
            if link_id is not None:
                self.core.close_link(link_id, "transport-error")
        except asyncio.CancelledError:
            if link_id is not None:
                self.core.close_link(link_id, "server-shutdown")
        finally:
            if link_id is not None:
                self._wakeups.pop(link_id, None)
                self._writers.pop(link_id, None)
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - race
                pass

    async def _drain_egress(self, link_id: int, wakeup: asyncio.Event,
                            writer: asyncio.StreamWriter) -> None:
        while True:
            await wakeup.wait()
            wakeup.clear()
            data = self.core.data_to_send(link_id)
            if data:
                writer.write(data)
                # The backpressure point: a stalled peer parks us here,
                # the core's bounded egress queue fills behind us, and
                # the egress policy (not this buffer) absorbs the flood.
                await writer.drain()
            if not self.core.has_link(link_id) and not data:
                return

    async def _poll_loop(self) -> None:
        while True:
            await asyncio.sleep(self._poll_interval)
            for event in self.core.poll():
                # Deadline sheds happen outside any connection task:
                # wake the link's writer (it exits on has_link=False)
                # and close its transport to unblock the reader.
                link_id = getattr(event, "link_id", None)
                if link_id is None:
                    continue
                self._wake(link_id)
                writer = self._writers.get(link_id)
                if writer is not None:
                    writer.close()


class RelayClient:
    """One asyncio client link to a :class:`RelayServer`.

    Handshakes on :meth:`connect`, joins its channel, then exposes
    :meth:`send` / :meth:`receive` over the decrypted stream::

        client = await RelayClient.connect("127.0.0.1", port, kex=kex,
                                           channel=b"room")
        await client.send(b"hello")
        payload = await client.receive()
    """

    def __init__(self, proto: LinkProtocol, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._proto = proto
        self._reader = reader
        self._writer = writer
        self._payloads: asyncio.Queue = asyncio.Queue()
        self._pump_task: "asyncio.Task | None" = None
        self.error = None

    @classmethod
    async def connect(cls, host: str, port: int, *, kex: KexConfig,
                      channel: "bytes | None" = None,
                      timeout: float = 10.0) -> "RelayClient":
        """Dial, handshake, optionally JOIN; returns the live client."""
        reader, writer = await asyncio.open_connection(host, port)
        proto = LinkProtocol(None, "initiator", SessionConfig(), kex=kex)
        client = cls(proto, reader, writer)
        try:
            await asyncio.wait_for(client._handshake(), timeout)
            client._pump_task = asyncio.create_task(client._pump())
            if channel is not None:
                await client.send(channel)
                ack = await asyncio.wait_for(client.receive(), timeout)
                if ack != b"+" + bytes(channel):
                    raise ConnectionError(f"relay refused join: {ack!r}")
        except BaseException:
            writer.close()
            raise
        return client

    async def _handshake(self) -> None:
        while self._proto.handshaking:
            data = self._proto.data_to_send()
            if data:
                self._writer.write(data)
                await self._writer.drain()
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                for event in self._proto.receive_eof():
                    if isinstance(event, ProtocolError):
                        raise event.error
                raise ConnectionError("relay closed during handshake")
            for event in self._proto.receive_data(chunk):
                if isinstance(event, ProtocolError):
                    raise event.error
        data = self._proto.data_to_send()
        if data:
            self._writer.write(data)
            await self._writer.drain()

    async def _pump(self) -> None:
        while True:
            chunk = await self._reader.read(_READ_CHUNK)
            events = (self._proto.receive_eof() if not chunk
                      else self._proto.receive_data(chunk))
            for event in events:
                if isinstance(event, PayloadReceived):
                    self._payloads.put_nowait(event.payload)
                elif isinstance(event, ProtocolError):
                    self.error = event.error
                    self._payloads.put_nowait(None)
                    return
            if not chunk:
                self._payloads.put_nowait(None)
                return

    async def send(self, payload: bytes) -> None:
        """Encrypt and ship one payload to the relay."""
        self._proto.send_payload(payload)
        self._writer.write(self._proto.data_to_send())
        await self._writer.drain()

    async def receive(self) -> "bytes | None":
        """The next routed payload, or ``None`` once the link ended."""
        payload = await self._payloads.get()
        return payload

    async def close(self) -> None:
        """Tear the connection down."""
        if self._pump_task is not None:
            self._pump_task.cancel()
            await asyncio.gather(self._pump_task, return_exceptions=True)
            self._pump_task = None
        self._proto.close()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - race
            pass

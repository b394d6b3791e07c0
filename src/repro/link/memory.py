"""In-memory secure-link transports: deterministic, no sockets, no loop.

:class:`LinkPair` wires an initiator and a responder
:class:`~repro.link.LinkProtocol` back-to-back through plain byte
buffers — the transport the old asyncio-welded design made impossible,
and the one tests want: every byte movement happens inside
:meth:`LinkPair.pump`, synchronously, in a deterministic order, with no
event loop, thread or port involved.

:class:`MemoryLinkServer` / :class:`MemoryLinkClient` dress a
:class:`LinkPair` up in the same server/client shape as the other
transports (``handler`` on the server, ``request``/``send_all`` on the
client), which is what ``repro.serve(codec, transport="memory")``
returns.
"""

from __future__ import annotations

from typing import Callable

from repro.core.errors import SessionError
from repro.link.events import LinkEvent, PayloadReceived, ProtocolError
from repro.link.protocol import OPEN, LinkProtocol, _resolve_root
from repro.net.metrics import MetricsRegistry, SessionMetrics
from repro.net.session import SessionConfig

__all__ = ["LinkPair", "MemoryLinkServer", "MemoryLinkClient"]


def _echo(payload: bytes) -> bytes:
    """The default handler: send every payload straight back."""
    return payload


def _check_inline(config: SessionConfig, transport: str) -> None:
    """Reject pool offload on transports that run cipher work inline."""
    if config.parallel_workers > 0:
        raise SessionError(
            f"the {transport} transport runs cipher work inline; "
            f"parallel_workers is not supported "
            f"(got {config.parallel_workers})"
        )


class LinkPair:
    """Two :class:`~repro.link.LinkProtocol` ends joined by memory.

    Usage::

        pair = LinkPair(root_key, session_id=b"MEMSID01")
        pair.handshake()
        pair.initiator.send_payload(b"ping")
        _, responder_events = pair.pump()

    Both ends default to sharing ``root`` and ``config`` (so the
    handshake always agrees); pass ``responder_root`` /
    ``responder_config`` to give the responder its own material — the
    handshake then really negotiates, exactly as it would over a
    socket, and a key or policy mismatch raises from
    :meth:`handshake` instead of passing silently.  ``session_id``
    pins the connection namespace for deterministic tests and defaults
    to a random one.

    ``i2r_filter`` / ``r2i_filter`` are per-direction byte filters
    applied to each chunk as it crosses the pair in :meth:`pump`:
    ``filter(chunk) -> bytes``.  Return the chunk unchanged to tap the
    wire (the scenario harness captures bytes this way), return
    modified bytes to inject deliberate stream damage, or ``b""`` to
    swallow the chunk.  ``None`` (the default) moves bytes untouched.

    ``kex`` / ``responder_kex`` are :class:`repro.kex.KexConfig`
    objects enabling the hello-v2 exchange; with only ``kex`` given
    (and no ``responder_root``) both ends share it, mirroring the
    shared-root default.
    """

    def __init__(self, root, config: SessionConfig | None = None,
                 session_id: bytes | None = None, *,
                 responder_root=None,
                 responder_config: SessionConfig | None = None,
                 initiator_metrics: SessionMetrics | Callable | None = None,
                 responder_metrics: SessionMetrics | Callable | None = None,
                 i2r_filter=None, r2i_filter=None,
                 kex=None, responder_kex=None):
        self.initiator = LinkProtocol(root, "initiator", config=config,
                                      session_id=session_id,
                                      metrics=initiator_metrics,
                                      kex=kex)
        if responder_root is None and responder_kex is None:
            responder_root, responder_config = root, config
            responder_kex = kex
        self.responder = LinkProtocol(responder_root, "responder",
                                      config=responder_config,
                                      metrics=responder_metrics,
                                      kex=responder_kex)
        self._i2r_filter = i2r_filter
        self._r2i_filter = r2i_filter

    def pump(self) -> tuple[list[LinkEvent], list[LinkEvent]]:
        """Shuttle queued bytes both ways until neither end has output.

        Returns ``(initiator_events, responder_events)`` gathered along
        the way.  Deterministic: initiator bytes move first each round.

        Each direction's entire queue moves as *one* chunk per round, so
        the receiving machine decrypts the whole burst through the
        batched path — this is the zero-transport-cost shape the
        link-layer benchmarks measure (docs/net.md, "Link-layer
        performance").
        """
        initiator_events: list[LinkEvent] = []
        responder_events: list[LinkEvent] = []
        while self.initiator.bytes_to_send or self.responder.bytes_to_send:
            data = self.initiator.data_to_send()
            if data and self._i2r_filter is not None:
                data = self._i2r_filter(data)
            if data:
                responder_events.extend(self.responder.receive_data(data))
            data = self.responder.data_to_send()
            if data and self._r2i_filter is not None:
                data = self._r2i_filter(data)
            if data:
                initiator_events.extend(self.initiator.receive_data(data))
        return initiator_events, responder_events

    def handshake(self) -> bytes:
        """Pump until both ends are ``OPEN``; returns the session id.

        Raises the underlying error if either end failed the handshake
        (which cannot happen when both ends were built from the same
        root and config, but can for deliberately mismatched tests).
        """
        initiator_events, responder_events = self.pump()
        for event in (*responder_events, *initiator_events):
            if isinstance(event, ProtocolError):
                raise event.error
        if self.initiator.state != OPEN or self.responder.state != OPEN:
            raise SessionError(
                f"handshake did not complete: initiator "
                f"{self.initiator.state}, responder {self.responder.state}"
            )
        return self.initiator.session_id


class MemoryLinkServer:
    """The responder side of in-process links (``transport="memory"``).

    Holds the root key, link policy and handler; every
    :meth:`connect` mints an independent :class:`LinkPair` session, so
    concurrent in-memory clients namespace their keys exactly like TCP
    connections do.
    """

    def __init__(self, root, config: SessionConfig | None = None,
                 handler=None, *, kex=None):
        root, config = _resolve_root(root, config)
        self._root = root
        self._config = config or SessionConfig()
        self._config.validate(root.params.width)
        _check_inline(self._config, "memory")
        self._kex = kex
        self._handler = handler if handler is not None else _echo
        self._next_peer = 0
        self.metrics = MetricsRegistry()
        self.errors: list[str] = []

    def connect(self, session_id: bytes | None = None,
                root=None,
                config: SessionConfig | None = None, *,
                kex=None) -> "MemoryLinkClient":
        """Open one in-memory connection; returns its client end.

        ``root``/``config`` are the *client's* key material and policy
        (defaulting to the server's own).  The handshake genuinely
        negotiates between the two sides, so a client holding a
        different key or rekey interval fails here with
        :class:`~repro.core.errors.HandshakeError` — exactly as it
        would over a socket transport, never silently.
        """
        if root is None:
            root = self._root
            if config is None:
                config = self._config
        root, config = _resolve_root(root, config)
        if config is not None:
            _check_inline(config, "memory")
        name = f"peer-{self._next_peer}"
        self._next_peer += 1
        try:
            pair = LinkPair(
                root, config=config, session_id=session_id,
                responder_root=self._root, responder_config=self._config,
                responder_metrics=lambda: self.metrics.session(name),
                kex=kex, responder_kex=self._kex)
            pair.handshake()
        except Exception as exc:
            self.errors.append(f"{name}: {exc}")
            raise
        return MemoryLinkClient(pair, self._handler)

    def close(self) -> None:
        """Nothing to release; present for transport-shape parity."""

    def __enter__(self) -> "MemoryLinkServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryLinkClient:
    """The initiator end of one :class:`MemoryLinkServer` connection.

    Mirrors the blocking-client surface (``request``, ``send_all``,
    ``session``, ``metrics``) but every call completes synchronously by
    pumping the underlying :class:`LinkPair`.
    """

    def __init__(self, pair: LinkPair, handler):
        self._pair = pair
        self._handler = handler
        self.session = pair.initiator.session

    @property
    def metrics(self):
        """This connection's client-side session counters."""
        return self.session.metrics

    @property
    def kex_mode(self) -> str | None:
        """The handshake mode this connection negotiated."""
        return self._pair.initiator.kex_mode

    @property
    def issued_ticket(self):
        """The resumption ticket the server issued, if any."""
        return self._pair.initiator.issued_ticket

    @property
    def fingerprint(self) -> bytes | None:
        """The session root key's fingerprint."""
        return self._pair.initiator.fingerprint

    def request(self, payload: bytes) -> bytes:
        """Send one payload and return its reply."""
        return self.send_all([payload])[0]

    def send_all(self, payloads: list[bytes]) -> list[bytes]:
        """Send every payload; returns the replies index-for-index."""
        initiator = self._pair.initiator
        responder = self._pair.responder
        for payload in payloads:
            initiator.send_payload(payload)
        replies: list[bytes] = []
        while len(replies) < len(payloads):
            initiator_events, responder_events = self._pair.pump()
            progressed = False
            for event in responder_events:
                if isinstance(event, ProtocolError):
                    raise event.error
                if isinstance(event, PayloadReceived):
                    responder.send_payload(self._handler(event.payload))
                    progressed = True
            for event in initiator_events:
                if isinstance(event, ProtocolError):
                    raise event.error
                if isinstance(event, PayloadReceived):
                    replies.append(event.payload)
                    progressed = True
            if not progressed:
                raise SessionError(
                    f"memory link made no progress with {len(replies)} of "
                    f"{len(payloads)} replies collected"
                )
        return replies

    def close(self) -> None:
        """Close both protocol ends (the session stays readable)."""
        self._pair.initiator.close()
        self._pair.responder.close()

    def __enter__(self) -> "MemoryLinkClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

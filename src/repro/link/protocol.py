"""The sans-IO secure-link protocol state machine.

:class:`LinkProtocol` owns everything about the secure-link protocol
that is *not* I/O: hello handshake sequencing, incremental
:class:`~repro.net.framing.FrameDecoder` framing, the
:class:`~repro.net.session.Session` (per-direction derived keys, nonce
schedule, replay windows) and the close/error lifecycle.  It performs no
I/O itself — callers feed received bytes in (:meth:`receive_data`), pull
typed :mod:`~repro.link.events` out, and drain outbound bytes with
:meth:`data_to_send` — so the same machine drives every transport:
asyncio streams (:mod:`repro.net`), blocking sockets
(:mod:`repro.link.sync`), UDP datagrams (:mod:`repro.link.udp`) and
in-memory pairs (:mod:`repro.link.memory`).

This module imports **no asyncio, socket, selectors or ssl** — directly
or transitively — which ``tests/link/test_sans_io.py`` enforces in a
subprocess.  That is what lets the protocol run on an edge device with
no event loop, or be driven byte-by-byte by an accelerator frontend.

Flow control is the transport's job, but the machine gives it the
signals: :attr:`LinkProtocol.bytes_to_send` reports the queued outbound
bytes, and the contract is to drain :meth:`data_to_send` after every
``receive_*`` / ``send_*`` call before feeding more input, applying the
transport's own backpressure (``await writer.drain()``, bounded queues,
blocking ``sendall``) in between.

State machine (see docs/net.md for the event table)::

      KEX ──(hello-v2 complete: root key derived)──▶ HANDSHAKE
       │                                                │
       │ forged/tampered kex frame,                     │ receive_data(hello ok)
       │ downgrade attempt, EOF                         ▼
       └──────────────▶ FAILED ◀── bad hello ── OPEN ── close() ─▶ CLOSED
                          ▲                      │  ╲
                          │                      │   ╲ receive_eof() → LinkClosed
                          └── framing / replay / CRC damage

The ``KEX`` phase exists only when a :class:`repro.kex.KexConfig` is
passed: it runs the authenticated hello-v2 exchange
(:class:`repro.kex.Handshake`) *ahead* of the classic hello, derives
the MHHEA root key for this session, and only then falls through to
the unchanged ``HANDSHAKE`` → ``OPEN`` path (the classic hello doubles
as key confirmation under the freshly derived root).  Without a kex
config the machine is byte-identical to the pre-kex protocol — the
pre-shared path stays wire-pinned.
"""

from __future__ import annotations

import os
from types import SimpleNamespace
from typing import Callable

from repro.core.errors import (
    CipherFormatError,
    HandshakeError,
    KexError,
    ReplayError,
    ReproError,
    SessionError,
)
from repro.core.key import Key
from repro.kex.handshake import Handshake as KexHandshake, KexConfig
from repro.link.events import (
    HandshakeComplete,
    LinkClosed,
    LinkEvent,
    PacketReceived,
    PayloadReceived,
    ProtocolError,
)
from repro.net.framing import FrameDecoder, Hello
from repro.net.metrics import SessionMetrics
from repro.net.session import Session, SessionConfig, key_fingerprint
from repro.obs import core as _obs
from repro.obs.logs import log_event

__all__ = [
    "KEX",
    "HANDSHAKE",
    "OPEN",
    "CLOSED",
    "FAILED",
    "LinkProtocol",
]

def _resolve_root(root, config: SessionConfig | None):
    """Normalise a ``Key``-or-``Codec`` argument to ``(key, config)``.

    The one duck-typed unwrap every link-layer constructor shares: a
    :class:`repro.api.Codec` (anything with ``.key`` and
    ``.session_config()``) supplies both the root key and — unless the
    caller overrides it — the link policy.  Duck-typed because importing
    :mod:`repro.api` here would be circular.
    """
    if not isinstance(root, Key):
        codec, root = root, root.key
        if config is None:
            config = codec.session_config()
    return root, config


#: Running the negotiated hello-v2 key exchange (kex links only).
KEX = "KEX"
#: Waiting for (initiator: the reply to) the hello frame.
HANDSHAKE = "HANDSHAKE"
#: Handshake done; payload packets flow both ways.
OPEN = "OPEN"
#: Locally closed via :meth:`LinkProtocol.close`; the machine is inert.
CLOSED = "CLOSED"
#: Broken by a protocol violation; the machine refuses further traffic.
FAILED = "FAILED"


class LinkProtocol:
    """One endpoint of the secure link as a pure state machine.

    Parameters
    ----------
    root:
        The shared root :class:`~repro.core.key.Key`, or a
        :class:`repro.api.Codec` (whose key and
        :meth:`~repro.api.Codec.session_config` are used).
    role:
        ``"initiator"`` (emits the first hello, normally the client) or
        ``"responder"`` (answers it, normally the server).
    config:
        The :class:`~repro.net.session.SessionConfig` link policy;
        defaults to the codec's, else to ``SessionConfig()``.
    session_id:
        Initiator only: the 8-byte connection namespace (minted from
        :func:`os.urandom` when omitted).  The responder learns it from
        the peer's hello and must pass ``None``.
    metrics:
        A :class:`~repro.net.session.SessionMetrics` for the session, or
        a zero-argument callable returning one — called only once the
        handshake succeeds, so failed handshakes never register a
        metrics slot.
    datagram:
        ``False`` (stream mode): bytes arrive via :meth:`receive_data`
        and any damage is fatal.  ``True`` (datagram mode): whole frames
        arrive via :meth:`receive_datagram`, and damaged, replayed or
        stale datagrams are *dropped* (counted in
        :attr:`datagrams_dropped`) — the replay window does the
        reordering work, which is what makes best-effort UDP usable.
    decrypt_payloads:
        With ``False``, OPEN-state packet frames are emitted as
        :class:`~repro.link.events.PacketReceived` (undecrypted) so the
        caller can run ``session.decrypt_async`` on a worker pool; the
        default decrypts inline and emits
        :class:`~repro.link.events.PayloadReceived`.
    kex:
        A :class:`repro.kex.KexConfig` to run the authenticated
        hello-v2 exchange ahead of the classic hello.  ``None`` (the
        default) keeps the pre-shared path byte-identical.  With a kex
        config, ``root`` may be ``None`` — the root key is derived by
        the handshake; pass a root as well to let a responder whose
        config allows ``"psk"`` also accept classic pre-shared peers.
        An initiator whose config offers only ``"psk"`` (or offers
        ``"resume"`` without holding a ticket and no ``"ecdh"``)
        simply speaks the classic hello.
    """

    def __init__(self, root, role: str,
                 config: SessionConfig | None = None,
                 session_id: bytes | None = None, *,
                 metrics: "SessionMetrics | Callable[[], SessionMetrics] | None" = None,
                 datagram: bool = False,
                 decrypt_payloads: bool = True,
                 kex: "KexConfig | None" = None):
        if root is not None:
            root, config = _resolve_root(root, config)
        if role not in Session.ROLES:
            raise SessionError(
                f"role must be one of {Session.ROLES}, got {role!r}"
            )
        self._kex_config = kex
        self._kex: "KexHandshake | None" = None
        self.kex_mode: "str | None" = None
        self.issued_ticket = None
        if kex is not None:
            kex.validate()
            if role == "initiator":
                run_v2 = ("ecdh" in kex.modes
                          or ("resume" in kex.modes
                              and kex.ticket is not None))
            else:
                run_v2 = "ecdh" in kex.modes or "resume" in kex.modes
            if not run_v2 and "psk" not in kex.modes:
                raise KexError(
                    "kex config offers neither a usable hello-v2 mode "
                    "nor the pre-shared fallback"
                )
            if run_v2:
                self._kex = KexHandshake(kex, role)
            if root is not None and root.params.width != kex.params.width:
                raise SessionError(
                    f"pre-shared root is {root.params.width}-bit but the "
                    f"kex config derives {kex.params.width}-bit keys"
                )
        if root is None:
            if self._kex is None:
                raise SessionError(
                    "a root key is required unless a kex config with a "
                    "hello-v2 mode is given"
                )
            if "psk" in kex.modes and role == "responder":
                raise SessionError(
                    "a responder allowing 'psk' needs the pre-shared "
                    "root key as well"
                )
            width = kex.params.width
        else:
            width = root.params.width
        self._root = root
        self._config = config or SessionConfig()
        self._config.validate(width)
        self.role = role
        self._metrics = metrics
        self._datagram = datagram
        self._decrypt_payloads = decrypt_payloads
        self._fingerprint = key_fingerprint(root) if root is not None else None
        self._decoder = FrameDecoder(
            self._config.max_wire_payload(width)
        )
        self._out: list[bytes] = []
        self._out_size = 0
        self._session: Session | None = None
        self._state = HANDSHAKE
        self._peer_closed = False
        #: Stream-mode only: bytes received (and dropped) after the peer's
        #: clean half-close — a conforming peer sends nothing after EOF.
        self.bytes_after_close = 0
        # Observability: instruments and the drop-count collector bind
        # once at construction to the then-current registry — when obs
        # is disabled these are the shared no-op singletons, so the hot
        # path pays one empty call.  The drop counts live apart from the
        # machine, so the collector does not keep the machine alive.
        registry = _obs.get_registry()
        self._obs = registry
        drops = self._drops = SimpleNamespace(datagrams=0, after_close=0)
        registry.collect(self, lambda: (
            ("counter", "repro_link_drops_total", (("reason", "datagram"),),
             drops.datagrams),
            ("counter", "repro_link_drops_total",
             (("reason", "after-close"),), drops.after_close)))
        self._handshake_start = registry.clock() if registry.enabled else 0.0
        self._obs_frames_rx = registry.counter(
            "repro_link_frames_total", direction="rx")
        self._obs_bytes_rx = registry.counter(
            "repro_link_bytes_total", direction="rx")
        self._obs_bytes_tx = registry.counter(
            "repro_link_bytes_total", direction="tx")
        self._obs_handshake = registry.histogram(
            "repro_link_handshake_seconds",
            help="Construction-to-OPEN handshake latency.")
        if role == "initiator":
            if session_id is None:
                session_id = os.urandom(8)
            if len(session_id) != 8:
                raise SessionError(
                    f"session id must be 8 bytes, got {len(session_id)}"
                )
            self._session_id: bytes | None = session_id
            if self._kex is not None:
                self._state = KEX
                self._queue(self._kex.first_message())
            else:
                self._queue(self._hello().pack())
        else:
            if session_id is not None:
                raise SessionError(
                    "the responder learns the session id from the peer's "
                    "hello; do not pass one"
                )
            self._session_id = None
            if self._kex is not None:
                self._state = KEX

    # -- introspection ----------------------------------------------------

    @property
    def state(self) -> str:
        """One of ``KEX`` / ``HANDSHAKE`` / ``OPEN`` / ``CLOSED`` /
        ``FAILED``."""
        return self._state

    @property
    def handshaking(self) -> bool:
        """True while the link is still negotiating (``KEX`` or
        ``HANDSHAKE``) — the condition every transport's connect loop
        waits on."""
        return self._state in (KEX, HANDSHAKE)

    @property
    def session(self) -> Session | None:
        """The live :class:`~repro.net.session.Session` (post-handshake)."""
        return self._session

    @property
    def session_id(self) -> bytes | None:
        """This connection's 8-byte namespace (responder: post-hello)."""
        return self._session_id

    @property
    def config(self) -> SessionConfig:
        """The (validated) link policy this machine runs under."""
        return self._config

    @property
    def fingerprint(self) -> bytes | None:
        """The session root key's fingerprint.

        For pre-shared links this is fixed at construction; with a kex
        it is ``None`` until the exchange derives the session root, so
        two values differing across connections is the observable proof
        that each exchange minted fresh keys."""
        return self._fingerprint

    @property
    def tenant_id(self) -> bytes | None:
        """The 16-byte tenant identifier of this link's key exchange.

        On an initiator this is the configured tenant from construction;
        on a responder it is learned from the peer's ClientHello (and is
        therefore only trustworthy once the handshake *completes* — the
        confirm MACs prove the peer holds that tenant's auth secret).
        ``None`` on pre-shared links that never ran hello-v2.
        """
        return self._kex.tenant_id if self._kex is not None else None

    @property
    def datagrams_dropped(self) -> int:
        """Datagram-mode only: damaged/replayed/stale datagrams dropped."""
        return self._drops.datagrams

    @property
    def peer_closed(self) -> bool:
        """True once :meth:`receive_eof` accepted a clean peer close."""
        return self._peer_closed

    @property
    def bytes_to_send(self) -> int:
        """Outbound bytes queued and not yet drained (flow signal)."""
        return self._out_size

    @property
    def bytes_skipped(self) -> int:
        """Inbound bytes the framing layer discarded (cumulative).

        These are the bytes of unframeable datagrams (truncated,
        corrupted beyond the magic, or junk), so the count moves only in
        datagram mode: on a stream, junk fails the link instead.  The
        scenario harness reconciles this against its injected-fault
        ledger."""
        return self._decoder.bytes_skipped

    def _hello(self) -> Hello:
        return Hello(
            algorithm=self._config.algorithm,
            width=self._root.params.width,
            session_id=self._session_id,
            fingerprint=self._fingerprint,
            rekey_interval=self._config.rekey_interval,
        )

    # -- inbound ----------------------------------------------------------

    def receive_data(self, data: bytes) -> list[LinkEvent]:
        """Absorb a stream chunk; return the events it completes.

        Arbitrary chunk boundaries are fine (one byte at a time works);
        partial frames wait in the decoder.  Any protocol violation
        returns a single :class:`~repro.link.events.ProtocolError` and
        moves the machine to ``FAILED``.  After ``CLOSED``/``FAILED``
        input is ignored; after a clean peer close it is dropped *with
        accounting* (``repro_link_drops_total{reason="after-close"}``
        and :attr:`bytes_after_close`) — a conforming peer never sends
        past its own EOF, so silence here would hide a misbehaving one.

        This is the link hot path, and it is batched: every consecutive
        run of ciphertext frames in the chunk goes through
        :meth:`Session.decrypt_batch <repro.net.session.Session.decrypt_batch>`
        in one call (one header parse per packet, one observability
        update per run) and events are collected into a single list per
        call — no per-frame allocation beyond the events themselves.
        """
        if self._datagram:
            raise SessionError("datagram links use receive_datagram()")
        if self._state in (CLOSED, FAILED):
            return []
        if self._peer_closed:
            self._drop_after_close(len(data))
            return []
        self._obs_bytes_rx.inc(len(data))
        try:
            frames = self._decoder.feed(data)
        except CipherFormatError as exc:
            return self._fail(exc)
        if not frames:
            return []
        self._obs_frames_rx.inc(len(frames))
        events: list[LinkEvent] = []
        n = len(frames)
        i = 0
        while i < n:
            frame = frames[i]
            if (self._state == OPEN and frame.kind == "packet"
                    and self._decrypt_payloads):
                # Batch the whole consecutive ciphertext run.
                j = i + 1
                while j < n and frames[j].kind == "packet":
                    j += 1
                accepted: list[tuple[bytes, int]] = []
                try:
                    self._session.decrypt_batch(
                        [frames[k].raw for k in range(i, j)],
                        accepted=accepted)
                except ReproError as exc:
                    # Frames accepted before the damage keep their
                    # events, exactly as per-frame processing would.
                    events.extend(PayloadReceived(payload, seq)
                                  for payload, seq in accepted)
                    events.extend(self._fail(exc))
                    return events
                events.extend(PayloadReceived(payload, seq)
                              for payload, seq in accepted)
                i = j
                continue
            events.extend(self._handle_frame(frame))
            if self._state == FAILED:
                break
            i += 1
        return events

    def receive_datagram(self, datagram: bytes) -> list[LinkEvent]:
        """Absorb one datagram holding exactly one frame (datagram mode).

        Damage, replays and stale sequence numbers drop the datagram
        (counted in :attr:`datagrams_dropped`) instead of failing the
        link — datagram transports lose and reorder packets as a matter
        of course, and the session's replay window already rejects
        everything that is not strictly newer.  Handshake-policy
        mismatches remain fatal: a peer with the wrong key or config can
        never become valid by retransmission.

        With ``decrypt_payloads=False`` an OPEN-state datagram is
        emitted as :class:`~repro.link.events.PacketReceived` exactly
        like the stream path, so the worker-pool offload hatch works
        over datagram transports too — the caller then owns the
        ``session.decrypt`` call and its replay/drop policy.
        """
        if not self._datagram:
            raise SessionError("stream links use receive_data()")
        if self._state in (CLOSED, FAILED):
            return []
        self._obs_bytes_rx.inc(len(datagram))
        # One decoder per link, reset (with skip accounting) whenever a
        # datagram fails to frame — a fresh instance per datagram would
        # hide the skipped bytes and reallocate on the hot path.
        decoder = self._decoder
        try:
            frames = decoder.feed(datagram)
        except CipherFormatError:
            frames = []
        if len(frames) != 1 or decoder.pending:
            decoder.reset()
            self._drop_datagram("unframeable")
            return []
        frame = frames[0]
        self._obs_frames_rx.inc()
        if self._state in (KEX, HANDSHAKE):
            return self._handle_frame(frame)
        if frame.kind != "packet":
            # A duplicated hello (e.g. a retransmit): not fatal, just late.
            self._drop_datagram("late-hello")
            return []
        if not self._decrypt_payloads:
            return [PacketReceived(bytes(frame.raw))]
        try:
            payload = self._session.decrypt(frame.raw)
        except (ReplayError, CipherFormatError, SessionError) as exc:
            self._drop_datagram(type(exc).__name__)
            return []
        return [PayloadReceived(payload, self._session.last_recv_seq)]

    def receive_eof(self) -> list[LinkEvent]:
        """The transport hit end-of-stream; classify it.

        A clean close on a frame boundary after the handshake yields
        :class:`~repro.link.events.LinkClosed` — the *receive* side is
        done but the local end may keep sending (TCP half-close).  EOF
        during the handshake or mid-frame is a protocol error.
        """
        if self._state in (CLOSED, FAILED) or self._peer_closed:
            return []
        if self._state in (KEX, HANDSHAKE):
            return self._fail(HandshakeError(
                "peer closed the connection during the handshake "
                "(key or configuration mismatch?)"
            ))
        if self._decoder.pending:
            return self._fail(CipherFormatError(
                f"stream ended mid-frame with {self._decoder.pending} "
                f"bytes pending"
            ))
        self._peer_closed = True
        return [LinkClosed()]

    # -- outbound ---------------------------------------------------------

    def send_payload(self, payload: bytes) -> None:
        """Encrypt ``payload`` into the next packet and queue its bytes.

        Consumes one sequence number on the send direction.  Raises
        :class:`~repro.core.errors.SessionError` unless the link is
        ``OPEN`` (handshake done, not failed, not locally closed).
        """
        self._check_sendable()
        self._queue(self._session.encrypt(payload))

    def send_packet(self, packet: bytes) -> None:
        """Queue a packet already encrypted through :attr:`session`.

        The escape hatch for transports that run the cipher elsewhere
        (the asyncio adapters await ``session.encrypt_async`` on a
        worker pool): the session reserved the sequence number, so the
        caller's only duty is to hand packets over in that same order.
        """
        self._check_sendable()
        self._queue(packet)

    def data_to_send(self) -> bytes:
        """Drain and return every queued outbound byte (may be empty).

        Single-chunk drains (the lockstep request/reply shape) hand the
        queued packet back as-is — no join, no copy; multi-chunk drains
        pay one join for the whole burst.
        """
        out = self._out
        if not out:
            return b""
        data = out[0] if len(out) == 1 else b"".join(out)
        out.clear()
        self._out_size = 0
        self._obs_bytes_tx.inc(len(data))
        return data

    def datagrams_to_send(self) -> list[bytes]:
        """Drain the outbound queue as one-frame datagrams.

        Each element is exactly one wire frame (hello or packet), the
        unit a datagram transport must preserve.
        """
        out = list(self._out)
        self._out.clear()
        if out:
            self._obs_bytes_tx.inc(self._out_size)
            self._out_size = 0
        return out

    def close(self) -> None:
        """Close the machine locally; queued-but-undrained bytes drop.

        Our wire format has no goodbye frame — closing is a transport
        act — so this only moves the state to ``CLOSED`` and makes
        further sends raise.  Idempotent, also after ``FAILED``.
        """
        if self._state not in (FAILED, CLOSED):
            self._transition(CLOSED)
        self._out.clear()
        self._out_size = 0

    # -- internals --------------------------------------------------------

    def _queue(self, chunk: bytes) -> None:
        self._out.append(chunk)
        self._out_size += len(chunk)

    def _check_sendable(self) -> None:
        if self._state != OPEN:
            raise SessionError(f"cannot send on a {self._state} link")

    def _transition(self, state: str) -> None:
        """Move the machine to ``state``, counting the edge."""
        self._state = state
        self._obs.counter("repro_link_state_transitions_total",
                          to=state).inc()

    def _drop_datagram(self, reason: str) -> None:
        self._drops.datagrams += 1
        log_event("repro.link", "link.datagram_drop", level=30,
                  role=self.role, reason=reason)

    def _drop_after_close(self, n_bytes: int) -> None:
        """Account bytes a peer sent after its own clean half-close."""
        self.bytes_after_close += n_bytes
        self._drops.after_close += 1
        log_event("repro.link", "link.after_close_drop", level=30,
                  role=self.role, dropped_bytes=n_bytes,
                  total_bytes=self.bytes_after_close)

    def _fail(self, error: ReproError) -> list[LinkEvent]:
        """Break the machine: drop queued output, emit the error event."""
        previous, self._state = self._state, FAILED
        self._obs.counter("repro_link_state_transitions_total",
                          to=FAILED).inc()
        log_event("repro.link", "link.fail", level=30, role=self.role,
                  state=previous, error=type(error).__name__,
                  detail=str(error))
        self._out.clear()
        self._out_size = 0
        return [ProtocolError(error)]

    def _handle_frame(self, frame) -> list[LinkEvent]:
        if self._state == KEX:
            return self._handle_kex_frame(frame)
        if self._state == HANDSHAKE:
            if frame.kind != "hello":
                return self._fail(HandshakeError(
                    "received a non-hello frame before the handshake "
                    "completed"
                ))
            try:
                return self._complete_handshake(frame.hello())
            except ReproError as exc:
                return self._fail(exc)
        if frame.kind != "packet":
            return self._fail(HandshakeError(
                "unexpected hello frame mid-session"
            ))
        # Only decrypt_payloads=False gets here: receive_data batches
        # every OPEN packet through Session.decrypt_batch otherwise.
        # Copy out of the decoder's drain buffer: the event may outlive
        # this call and cross a process-pool pickle boundary, neither of
        # which a memoryview survives.
        return [PacketReceived(bytes(frame.raw))]

    def _handle_kex_frame(self, frame) -> list[LinkEvent]:
        """One frame while the hello-v2 exchange runs (``KEX`` state).

        The downgrade-protection policy lives here: what this machine
        accepts is fixed by its *local* configuration before any byte
        arrives, never by what the peer sends.  A classic hello-v1 is
        honoured only by a responder explicitly configured with
        ``"psk"`` in its modes (and holding the pre-shared root); every
        other combination — an initiator that sent a ClientHello being
        answered with a hello-v1, a responder that requires hello-v2
        receiving one — aborts the link.
        """
        if frame.kind == "hello":
            if (self.role == "responder"
                    and "psk" in self._kex_config.modes
                    and self._root is not None):
                # An old pre-shared peer: fall back by *local policy*.
                try:
                    return self._complete_handshake(frame.hello())
                except ReproError as exc:
                    return self._fail(exc)
            return self._fail(KexError(
                "peer sent a pre-shared hello on a link that requires "
                "the authenticated key exchange (downgrade attempt?)"
            ))
        if frame.kind != "kex":
            return self._fail(KexError(
                "received ciphertext before the key exchange completed"
            ))
        try:
            reply = self._kex.absorb(frame.raw)
        except KexError as exc:
            return self._fail(exc)
        if reply is not None:
            self._queue(reply)
        if self._kex.done:
            self._install_kex_root()
        return []

    def _install_kex_root(self) -> None:
        """Adopt the handshake-derived root and fall through to the
        classic hello exchange (which now doubles as key confirmation
        under the derived key)."""
        self._root = self._kex.root_key
        self._fingerprint = key_fingerprint(self._root)
        self.kex_mode = self._kex.mode
        self.issued_ticket = self._kex.issued_ticket
        self._transition(HANDSHAKE)
        if self._obs.enabled:
            self._obs.histogram(
                "repro_link_kex_seconds", mode=self._kex.mode,
                help="Construction-to-derived-root kex latency.",
            ).observe(self._obs.clock() - self._handshake_start)
        if self.role == "initiator":
            self._queue(self._hello().pack())

    def _complete_handshake(self, hello: Hello) -> list[LinkEvent]:
        config = self._config
        width = self._root.params.width
        if self.role == "initiator":
            if hello.fingerprint != self._fingerprint:
                raise HandshakeError(
                    "peer key fingerprint does not match ours"
                )
            if hello.session_id != self._session_id:
                raise HandshakeError("peer echoed a different session id")
            if (hello.algorithm != config.algorithm
                    or hello.width != width
                    or hello.rekey_interval != config.rekey_interval):
                raise HandshakeError(
                    f"peer countered with algorithm={hello.algorithm} "
                    f"width={hello.width} "
                    f"rekey_interval={hello.rekey_interval}"
                )
        else:
            if hello.fingerprint != self._fingerprint:
                raise HandshakeError(
                    "key fingerprint mismatch — peer holds a different "
                    "root key"
                )
            if hello.width != width:
                raise HandshakeError(
                    f"peer wants {hello.width}-bit vectors, "
                    f"this end runs {width}"
                )
            if hello.algorithm != config.algorithm:
                raise HandshakeError(
                    f"peer wants algorithm {hello.algorithm}, "
                    f"this end runs {config.algorithm}"
                )
            if hello.rekey_interval != config.rekey_interval:
                raise HandshakeError(
                    f"peer wants rekey interval {hello.rekey_interval}, "
                    f"this end runs {config.rekey_interval}"
                )
            self._session_id = hello.session_id
        metrics = self._metrics() if callable(self._metrics) else self._metrics
        self._session = Session(self._root, role=self.role,
                                session_id=self._session_id,
                                config=config, metrics=metrics)
        if self.role == "responder":
            self._queue(self._hello().pack())
        if self.kex_mode is None:
            self.kex_mode = "psk"
        self._transition(OPEN)
        if self._obs.enabled:
            self._obs.counter("repro_link_handshakes_total",
                              mode=self.kex_mode).inc()
            self._obs_handshake.observe(
                self._obs.clock() - self._handshake_start)
            log_event("repro.link", "link.open", role=self.role,
                      session_id=self._session_id.hex(),
                      kex_mode=self.kex_mode)
        return [HandshakeComplete(self._session_id, hello)]

    def __repr__(self) -> str:
        return (f"<LinkProtocol role={self.role!r} state={self._state} "
                f"datagram={self._datagram} "
                f"bytes_to_send={self.bytes_to_send}>")

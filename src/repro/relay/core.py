"""The sans-IO relay core: terminate many links, route by tenant+channel.

:class:`RelayCore` is to a fleet what
:class:`~repro.link.LinkProtocol` is to one connection: a pure state
machine.  It owns one responder ``LinkProtocol`` per accepted
connection, decrypts inbound payloads, routes them to every other link
in the same ``(tenant, channel)`` group, and re-encrypts per receiver
under that receiver's own session keys — the relay is the trust
boundary where tenant policy (quotas, revocation, budgets) is applied
to *plaintext* it alone can see.

No asyncio, no sockets (policed by ``tests/link/test_sans_io.py``):
adapters push bytes in with :meth:`receive_data`, pull bytes out with
:meth:`data_to_send`, and tick deadlines with :meth:`poll` on an
injectable clock.  Every decision comes back as a typed event from
:mod:`repro.relay.events`, and every shed decision is counted once, in
:attr:`RelayCore.shed`, which the obs registry exports as
``repro_relay_shed_total{reason=}`` when scraped; the scenario harness
reconciles events, ledger and export exactly.

Wire protocol above the secure link (all inside encrypted payloads)::

    client -> relay   first payload: the channel name (the JOIN)
    relay  -> client  ``b"+" + channel``  (the ack; FIFO per link, so
                      it always precedes any routed traffic)
    client -> relay   every later payload: routed verbatim to every
                      other member of the (tenant, channel) group
"""

from __future__ import annotations

import time
from functools import partial
from types import SimpleNamespace

from repro.core.errors import SessionError, TenantRevokedError
from repro.kex.handshake import KexConfig
from repro.kex.keyring import TenantKeyring
from repro.kex.tickets import TicketVault
from repro.link.events import (
    HandshakeComplete,
    LinkClosed,
    PayloadReceived,
    ProtocolError,
)
from repro.link.protocol import OPEN, LinkProtocol
from repro.net.metrics import MetricsRegistry
from repro.net.session import SessionConfig
from repro.obs import core as _obs
from repro.relay.admission import AdmissionController
from repro.relay.config import RelayConfig
from repro.relay.events import (
    ChannelJoined,
    LinkAdmitted,
    LinkOpen,
    LinkRejected,
    LinkRetired,
    LinkShed,
    PayloadDropped,
    PayloadRouted,
    RelayEvent,
)
from repro.relay.router import ChannelRouter

__all__ = ["RelayCore"]

#: Histogram buckets for routed fan-out (receivers per payload).
_FANOUT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: ``# HELP`` text of the series a relay core exports.
_HELP = {
    "repro_relay_shed_total": "Relay load-shedding decisions by reason.",
    "repro_relay_routed_payloads_total": "Payloads fanned out by the relay.",
    "repro_relay_routed_bytes_total":
        "Plaintext bytes queued to receivers by the relay.",
    "repro_relay_links_active": "Links currently admitted to the relay.",
    "repro_relay_tenant_links": "Live links per authenticated tenant.",
}


def _tenant_label(tenant_id: bytes) -> str:
    """A human label for a 16-byte tenant id (metrics/log use only)."""
    name = tenant_id.rstrip(b"\x00")
    try:
        return name.decode("ascii")
    except UnicodeDecodeError:
        return name.hex()


class _Link:
    """Per-link relay state riding above one responder LinkProtocol."""

    __slots__ = ("link_id", "proto", "opened_at", "last_activity",
                 "tenant_id", "tenant_admitted", "channel", "egress",
                 "frames", "payload_bytes", "closed")

    def __init__(self, link_id: int, proto: LinkProtocol, now: float):
        self.link_id = link_id
        self.proto = proto
        self.opened_at = now
        self.last_activity = now
        self.tenant_id: "bytes | None" = None
        self.tenant_admitted = False
        self.channel: "bytes | None" = None
        self.egress: list = []   # plaintext payloads awaiting encryption
        self.frames = 0
        self.payload_bytes = 0
        self.closed = False


class RelayCore:
    """Multi-tenant relay hub as a sans-IO state machine.

    Parameters
    ----------
    keyring:
        The fleet :class:`~repro.kex.TenantKeyring`.  Every link's
        handshake resolves its auth secret per tenant through it, so
        revocation/expiry bite mid-handshake and surface as typed
        ``tenant-revoked`` rejections.
    config:
        The :class:`~repro.relay.RelayConfig` policy; defaults apply.
    clock:
        Monotonic-seconds callable for deadlines, rate limiting and
        per-link metrics (injectable for deterministic tests).
    on_egress:
        Optional ``callable(link_id)`` invoked whenever new outbound
        work is queued for a link — the hook an asyncio adapter uses to
        wake that link's writer task.  Called from inside
        :meth:`receive_data`; must not reenter the core.
    """

    def __init__(self, keyring: TenantKeyring, config: "RelayConfig | None" = None,
                 *, clock=time.monotonic, on_egress=None):
        if not isinstance(keyring, TenantKeyring):
            raise SessionError("RelayCore needs a TenantKeyring "
                               f"(got {type(keyring).__name__})")
        self._keyring = keyring
        self._config = config if config is not None else RelayConfig()
        self._config.validate()
        self._clock = clock
        self._on_egress = on_egress
        #: The relay-wide resumption-ticket vault, sealed under the
        #: fleet's ticket secret — reconnecting clients skip the ladder.
        self.vault = TicketVault(keyring.ticket_secret(),
                                 lifetime_s=self._config.ticket_lifetime_s)
        self._kex_config = KexConfig(modes=("ecdh", "resume"),
                                     keyring=keyring, tickets=self.vault)
        self._allowed = self._config.normalized_allow_list()
        self.admission = AdmissionController(
            max_links=self._config.max_links,
            max_links_per_tenant=self._config.max_links_per_tenant,
            handshake_rate=self._config.handshake_rate,
            handshake_burst=self._config.handshake_burst,
            allowed_tenants=self._allowed,
        )
        self.router = ChannelRouter()
        self.metrics = MetricsRegistry(clock=clock)
        self._links: dict = {}
        self._next_id = 0
        #: The shed ledger: reason -> count, exported as
        #: ``repro_relay_shed_total{reason=}`` — the reconciliation
        #: ground truth for the flood scenarios.
        self.shed: dict = {}
        routed = self._routed = SimpleNamespace(payloads=0, bytes=0)
        shed, links = self.shed, self._links
        tenant_links = self.admission.tenant_links

        def samples() -> list:
            # Reads only the ledgers, never ``self``: the registry must
            # not keep the core alive.
            out = [("counter", "repro_relay_routed_payloads_total", (),
                    routed.payloads),
                   ("counter", "repro_relay_routed_bytes_total", (),
                    routed.bytes),
                   ("gauge", "repro_relay_links_active", (), len(links))]
            out += [("counter", "repro_relay_shed_total",
                     (("reason", reason),), count)
                    for reason, count in list(shed.items())]
            out += [("gauge", "repro_relay_tenant_links",
                     (("tenant", _tenant_label(tenant)),), count)
                    for tenant, count in list(tenant_links.items())]
            return out

        registry = _obs.get_registry()
        registry.collect(self, samples, help=_HELP)
        self._obs_fanout = registry.histogram(
            "repro_relay_fanout_receivers",
            help="Receivers per routed payload.",
            buckets=_FANOUT_BUCKETS)

    # -- introspection ----------------------------------------------------

    @property
    def config(self) -> RelayConfig:
        """The (validated) policy this relay runs under."""
        return self._config

    @property
    def routed_payloads(self) -> int:
        """Payloads fanned out so far."""
        return self._routed.payloads

    @property
    def routed_bytes(self) -> int:
        """Plaintext bytes queued to receivers so far."""
        return self._routed.bytes

    @property
    def active_links(self) -> int:
        """Links currently alive (any state, handshaking included)."""
        return len(self._links)

    def has_link(self, link_id: int) -> bool:
        """True while ``link_id`` is alive inside the relay."""
        return link_id in self._links

    def link_tenant(self, link_id: int) -> "bytes | None":
        """The authenticated tenant of a link (``None`` pre-handshake)."""
        link = self._links.get(link_id)
        return link.tenant_id if link is not None else None

    def tenants(self) -> dict:
        """``{tenant label: live link count}`` over authenticated links."""
        return {_tenant_label(tenant): count
                for tenant, count in sorted(self.admission.tenant_links.items())}

    def stats(self) -> dict:
        """One JSON-able snapshot (the CLI's and health endpoint's view)."""
        return {
            "active_links": self.active_links,
            "tenants": self.tenants(),
            "channels": len(self.router.snapshot()),
            "routed_payloads": self.routed_payloads,
            "routed_bytes": self.routed_bytes,
            "shed": dict(sorted(self.shed.items())),
            "metrics_sessions": self.metrics.total_sessions,
            "tickets": dict(self.vault.counters),
        }

    # -- admission ---------------------------------------------------------

    def connection_made(self) -> tuple:
        """Admit (or refuse) one new transport connection.

        Returns ``(link_id, events)``; ``link_id`` is ``None`` when the
        connect-time gates refused — the adapter must then close the
        transport without feeding any bytes.
        """
        now = self._clock()
        reason = self.admission.admit_connection(now)
        if reason is not None:
            self._count_shed(reason)
            return None, [LinkRejected(None, reason)]
        link_id = self._next_id
        self._next_id += 1
        proto = LinkProtocol(
            None, "responder", SessionConfig(engine=self._config.engine),
            kex=self._kex_config,
            # Bound to the metrics registry, not the core: the obs
            # collector reads ``_links``, so a link must not reach back.
            metrics=partial(self.metrics.session, f"relay-{link_id}"),
        )
        self._links[link_id] = _Link(link_id, proto, now)
        return link_id, [LinkAdmitted(link_id)]

    # -- inbound -----------------------------------------------------------

    def receive_data(self, link_id: int, data: bytes) -> list:
        """Feed one transport chunk to a link; returns relay events.

        Unknown or already-retired link ids are ignored (the adapter's
        reader may race a poll-driven shed) — feeding a dead link is
        not an error, it is a no-op.
        """
        link = self._links.get(link_id)
        if link is None or link.closed:
            return []
        link.last_activity = self._clock()
        return self._dispatch(link, link.proto.receive_data(data))

    def receive_eof(self, link_id: int) -> list:
        """The transport hit end-of-stream for a link.

        The relay treats a peer's EOF as the end of the conversation —
        half-open relay links have no use and would pin quota slots —
        so a clean close retires the link and a dirty one sheds it.
        """
        link = self._links.get(link_id)
        if link is None or link.closed:
            return []
        return self._dispatch(link, link.proto.receive_eof())

    def _dispatch(self, link: _Link, link_events: list) -> list:
        events: list = []
        for event in link_events:
            if isinstance(event, PayloadReceived):
                events.extend(self._on_payload(link, event.payload))
            elif isinstance(event, HandshakeComplete):
                events.extend(self._on_open(link))
            elif isinstance(event, ProtocolError):
                events.extend(self._on_protocol_error(link, event.error))
            elif isinstance(event, LinkClosed):
                events.extend(self._retire(link, "peer-closed"))
            if link.closed:
                break
        return events

    def _on_open(self, link: _Link) -> list:
        tenant_id = link.proto.tenant_id
        reason = self.admission.admit_tenant(tenant_id)
        if reason is not None:
            self._count_shed(reason)
            self._retire(link, reason, count_tenant=False)
            return [LinkRejected(link.link_id, reason, tenant_id=tenant_id)]
        link.tenant_id = tenant_id
        link.tenant_admitted = True
        return [LinkOpen(link.link_id, tenant_id)]

    def _on_payload(self, link: _Link, payload: bytes) -> list:
        cfg = self._config
        link.frames += 1
        link.payload_bytes += len(payload)
        if cfg.max_frames_per_link and link.frames > cfg.max_frames_per_link:
            return self._shed(link, "budget-frames")
        if cfg.max_bytes_per_link and link.payload_bytes > cfg.max_bytes_per_link:
            return self._shed(link, "budget-bytes")
        if link.channel is None:
            # The JOIN: first payload names the channel.
            if not payload or len(payload) > cfg.max_channel_bytes:
                return self._shed(link, "bad-join")
            link.channel = bytes(payload)
            self.router.join(link.link_id, link.tenant_id, link.channel)
            events = [ChannelJoined(link.link_id, link.tenant_id, link.channel)]
            events.extend(self._enqueue(link, b"+" + link.channel)[1])
            return events
        receivers = 0
        side_events: list = []
        for peer_id in self.router.peers(link.link_id):
            peer = self._links.get(peer_id)
            if peer is None or peer.closed:
                continue
            delivered, dropped = self._enqueue(peer, payload)
            side_events.extend(dropped)
            if delivered:
                receivers += 1
        self._routed.payloads += 1
        self._routed.bytes += len(payload) * receivers
        self._obs_fanout.observe(receivers)
        return [PayloadRouted(link.link_id, link.channel, receivers,
                              len(payload))] + side_events

    def _enqueue(self, link: _Link, payload: bytes) -> tuple:
        """Queue one plaintext payload toward a link; apply the egress
        policy.  Returns ``(delivered, events)``."""
        cfg = self._config
        events: list = []
        if len(link.egress) >= cfg.egress_queue_payloads:
            if cfg.egress_policy == "disconnect":
                return False, self._shed(link, "egress-disconnect")
            del link.egress[0]
            self._count_shed("egress-drop")
            events.append(PayloadDropped(link.link_id, "egress-drop"))
        link.egress.append(payload)
        if self._on_egress is not None:
            self._on_egress(link.link_id)
        return True, events

    def _on_protocol_error(self, link: _Link, error) -> list:
        if isinstance(error, TenantRevokedError):
            # The keyring refused the tenant mid-handshake: this is an
            # admission decision, not a wire failure, and it gets the
            # typed rejection the revocation policy promises.
            self._count_shed("tenant-revoked")
            self._retire(link, "tenant-revoked")
            return [LinkRejected(link.link_id, "tenant-revoked",
                                 tenant_id=error.tenant_id)]
        return self._shed(link, "protocol-error")

    # -- outbound ----------------------------------------------------------

    def data_to_send(self, link_id: int) -> bytes:
        """Drain every sendable outbound byte for one link.

        Encrypts the link's queued plaintext egress under its own
        session (payloads are queued as plaintext so an overflowing
        queue never burns sequence numbers on bytes it then drops),
        then drains the protocol's wire buffer — which also carries
        handshake traffic while the link is still negotiating.
        """
        link = self._links.get(link_id)
        if link is None:
            return b""
        proto = link.proto
        if link.egress and proto.state == OPEN:
            for payload in link.egress:
                proto.send_payload(payload)
            link.egress.clear()
        data = proto.data_to_send()
        if data:
            # Outbound progress counts as activity: a healthy reader
            # keeps draining, a stalled one lets the idle deadline bite.
            link.last_activity = self._clock()
        return data

    def close_link(self, link_id: int, reason: str = "local-close") -> list:
        """Retire a link locally (no shed accounting); idempotent."""
        link = self._links.get(link_id)
        if link is None:
            return []
        return self._retire(link, reason)

    # -- deadlines ---------------------------------------------------------

    def poll(self, now: "float | None" = None) -> list:
        """Enforce handshake/idle deadlines; call on a coarse timer."""
        now = self._clock() if now is None else now
        cfg = self._config
        events: list = []
        for link in list(self._links.values()):
            if link.closed:
                continue
            if link.proto.handshaking:
                if now - link.opened_at >= cfg.handshake_timeout_s:
                    events.extend(self._shed(link, "handshake-timeout"))
            elif cfg.idle_timeout_s:
                if now - link.last_activity >= cfg.idle_timeout_s:
                    events.extend(self._shed(link, "idle-timeout"))
        return events

    # -- internals ---------------------------------------------------------

    def _shed(self, link: _Link, reason: str) -> list:
        self._count_shed(reason)
        tenant_id = link.tenant_id
        self._retire(link, reason)
        return [LinkShed(link.link_id, reason, tenant_id=tenant_id)]

    def _retire(self, link: _Link, reason: str,
                count_tenant: bool = True) -> list:
        if link.closed:
            return []
        link.closed = True
        self.router.leave(link.link_id)
        tenant_id = link.tenant_id if (link.tenant_admitted and count_tenant) \
            else None
        self.admission.release(tenant_id)
        link.proto.close()
        link.egress.clear()
        del self._links[link.link_id]
        return [LinkRetired(link.link_id, reason)]

    def _count_shed(self, reason: str) -> None:
        self.shed[reason] = self.shed.get(reason, 0) + 1

    def __repr__(self) -> str:
        return (f"<RelayCore links={self.active_links} "
                f"tenants={len(self.admission.tenant_links)} "
                f"shed={sum(self.shed.values())}>")

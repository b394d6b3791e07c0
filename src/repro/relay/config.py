"""Relay policy knobs and the operator-facing tenant config file.

:class:`RelayConfig` is the full policy surface of a
:class:`~repro.relay.RelayCore` — quotas, budgets, deadlines, egress
bounds — with defaults sized for tests and small deployments.
:func:`load_tenant_config` reads the JSON file the ``repro relay
--tenant-config`` flag points at and returns the
(:class:`~repro.kex.TenantKeyring`, :class:`RelayConfig`) pair the
server needs.  File format::

    {
      "fleet_root_hex": "<32+ byte hex fleet root>",
      "tenants": {
        "alpha": {},
        "beta":  {"revoked": true},
        "gamma": {"expires_unix": 1767225600}
      },
      "max_links": 1000,
      "max_links_per_tenant": 100,
      "handshake_rate": 200,
      "idle_timeout_s": 120
    }

Naming a ``tenants`` map turns on the allow list (unknown tenants are
shed with ``unknown-tenant``); omitting it admits any tenant the
keyring will derive for.  Revocations and expiries are applied to the
returned keyring, so they bite mid-handshake exactly like runtime
:meth:`~repro.kex.TenantKeyring.revoke` calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.engines import DEFAULT_ENGINE_NAME, check_engine_name
from repro.core.errors import SessionError
from repro.kex.keyring import TenantKeyring, normalize_tenant_id

__all__ = ["RelayConfig", "load_tenant_config"]

#: Egress-overflow policies: drop the oldest queued payload (lossy but
#: the link survives) or shed the whole link.
EGRESS_POLICIES = ("drop-oldest", "disconnect")


@dataclass(frozen=True)
class RelayConfig:
    """Every policy knob of a relay core.  Zero means "unlimited" for
    the budget fields; deadlines are seconds on the core's injected
    clock."""

    #: Relay-wide concurrent-link cap (the global admission quota).
    max_links: int = 1024
    #: Per-authenticated-tenant concurrent-link cap.
    max_links_per_tenant: int = 256
    #: Admissions per second the token bucket refills (0 = unlimited).
    handshake_rate: float = 0.0
    #: Token-bucket burst depth for :attr:`handshake_rate`.
    handshake_burst: int = 32
    #: Tenant allow list (names or 16-byte ids); ``None`` admits all.
    allowed_tenants: "tuple | None" = None
    #: Seconds a link may spend handshaking before it is shed.
    handshake_timeout_s: float = 10.0
    #: Seconds without traffic progress before an open link is shed
    #: (0 disables).  Progress is *either* direction: inbound frames or
    #: outbound drains — a stalled reader makes no progress even while
    #: the relay queues data at it, which is the slowloris defence.
    idle_timeout_s: float = 300.0
    #: Per-link inbound frame budget (0 = unlimited).
    max_frames_per_link: int = 0
    #: Per-link inbound payload-byte budget (0 = unlimited).
    max_bytes_per_link: int = 0
    #: Max plaintext payloads queued toward one link before the
    #: egress policy applies.
    egress_queue_payloads: int = 64
    #: ``"drop-oldest"`` or ``"disconnect"`` (see EGRESS_POLICIES).
    egress_policy: str = "drop-oldest"
    #: Longest accepted channel name (the JOIN payload).
    max_channel_bytes: int = 64
    #: Resumption-ticket lifetime for the relay's vault.
    ticket_lifetime_s: float = 3600.0
    #: Cipher engine for every relay-side link session (the registry
    #: default unless named; every engine is wire-identical, see
    #: repro.core.engines).
    engine: str = DEFAULT_ENGINE_NAME

    def validate(self) -> None:
        """Reject inconsistent policies with :class:`SessionError`."""
        if self.max_links < 1:
            raise SessionError(f"max_links must be >= 1, got {self.max_links}")
        if self.max_links_per_tenant < 1:
            raise SessionError("max_links_per_tenant must be >= 1, "
                               f"got {self.max_links_per_tenant}")
        if self.handshake_rate < 0:
            raise SessionError("handshake_rate must be >= 0")
        if self.handshake_burst < 1:
            raise SessionError("handshake_burst must be >= 1")
        if self.handshake_timeout_s <= 0:
            raise SessionError("handshake_timeout_s must be > 0")
        if self.idle_timeout_s < 0:
            raise SessionError("idle_timeout_s must be >= 0")
        if self.max_frames_per_link < 0 or self.max_bytes_per_link < 0:
            raise SessionError("per-link budgets must be >= 0")
        if self.egress_queue_payloads < 1:
            raise SessionError("egress_queue_payloads must be >= 1")
        if self.egress_policy not in EGRESS_POLICIES:
            raise SessionError(
                f"egress_policy must be one of {EGRESS_POLICIES}, "
                f"got {self.egress_policy!r}")
        if self.max_channel_bytes < 1:
            raise SessionError("max_channel_bytes must be >= 1")
        if self.ticket_lifetime_s <= 0:
            raise SessionError("ticket_lifetime_s must be > 0")
        check_engine_name(self.engine)
        if self.allowed_tenants is not None:
            for tenant in self.allowed_tenants:
                normalize_tenant_id(tenant)  # length check

    def normalized_allow_list(self) -> "frozenset | None":
        """The allow list as 16-byte wire ids, or ``None``."""
        if self.allowed_tenants is None:
            return None
        return frozenset(normalize_tenant_id(t) for t in self.allowed_tenants)


#: RelayConfig fields an operator may set from the JSON file.
_CONFIG_KEYS = (
    "max_links", "max_links_per_tenant", "handshake_rate",
    "handshake_burst", "handshake_timeout_s", "idle_timeout_s",
    "max_frames_per_link", "max_bytes_per_link", "egress_queue_payloads",
    "egress_policy", "max_channel_bytes", "ticket_lifetime_s", "engine",
)


def load_tenant_config(path, *, clock=None) -> tuple:
    """Parse a tenant-config JSON file into ``(keyring, relay_config)``.

    Raises :class:`SessionError` on a malformed file.  ``clock`` is
    forwarded to the keyring (tests inject a fake one for expiries).
    """
    try:
        with open(path, "rb") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SessionError(f"cannot load tenant config {path}: {exc}")
    if not isinstance(doc, dict):
        raise SessionError(f"tenant config {path} must be a JSON object")
    root_hex = doc.get("fleet_root_hex")
    if not isinstance(root_hex, str):
        raise SessionError("tenant config needs a 'fleet_root_hex' string")
    try:
        fleet_root = bytes.fromhex(root_hex)
    except ValueError as exc:
        raise SessionError(f"bad fleet_root_hex: {exc}")
    keyring = (TenantKeyring(fleet_root, clock=clock) if clock is not None
               else TenantKeyring(fleet_root))
    fields = {}
    for key in _CONFIG_KEYS:
        if key in doc:
            fields[key] = doc[key]
    tenants = doc.get("tenants")
    if tenants is not None:
        if not isinstance(tenants, dict):
            raise SessionError("'tenants' must map tenant names to policies")
        fields["allowed_tenants"] = tuple(sorted(tenants))
        for name, policy in tenants.items():
            policy = policy or {}
            if policy.get("revoked"):
                keyring.revoke(name)
            expires = policy.get("expires_unix")
            if expires is not None:
                keyring.set_expiry(name, float(expires))
    config = RelayConfig(**fields)
    config.validate()
    return keyring, config

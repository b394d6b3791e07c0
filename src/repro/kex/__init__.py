"""``repro.kex`` — authenticated key exchange for the secure link.

Reproduces the ECCDH→symmetric-cipher composition of the paper's
hardware lineage (SNIPPETS.md Snippets 1–2: a curve-agreement core
keying a block cipher) in software: an ephemeral X25519 handshake
derives the MHHEA root key per session, with session-resumption
tickets and a per-tenant key hierarchy layered on top.  Like
:mod:`repro.obs`, the subsystem is sans-IO and zero-dependency — pure
:mod:`hashlib`/:mod:`hmac`/:mod:`struct`, no sockets, no event loop —
so the link protocol can drive it anywhere it runs itself.

* :mod:`repro.kex.x25519` — RFC 7748 scalar multiplication;
* :mod:`repro.kex.hkdf` — RFC 5869 HKDF-SHA256;
* :mod:`repro.kex.wire` — the ``MKX2`` hello-v2 frame format;
* :mod:`repro.kex.handshake` — the two-round-trip state machine
  (:class:`Handshake`) with transcript-bound confirmation MACs and
  mode negotiation (downgrade attempts abort, never degrade);
* :mod:`repro.kex.tickets` — server-sealed single-use resumption
  tickets (:class:`TicketVault`);
* :mod:`repro.kex.keyring` — the fleet-root → per-tenant →
  per-session derivation tree (:class:`TenantKeyring`).

See docs/kex.md for the wire format, the full derivation tree, and
the downgrade-protection argument.
"""

from repro.core.errors import KexError
from repro.kex.handshake import (
    KEX_MODES,
    Handshake,
    KexConfig,
    ResumptionTicket,
    kex_auth_secret,
    kex_config_for_key,
)
from repro.kex.hkdf import hkdf, hkdf_expand, hkdf_extract
from repro.kex.keyring import TENANT_ID_SIZE, TenantKeyring, normalize_tenant_id
from repro.kex.tickets import TicketVault
from repro.kex.x25519 import (
    X25519_BASEPOINT,
    public_key,
    shared_secret,
    x25519,
)

__all__ = [
    "KexError",
    "KEX_MODES",
    "Handshake",
    "KexConfig",
    "ResumptionTicket",
    "kex_auth_secret",
    "kex_config_for_key",
    "hkdf",
    "hkdf_extract",
    "hkdf_expand",
    "TENANT_ID_SIZE",
    "TenantKeyring",
    "normalize_tenant_id",
    "TicketVault",
    "X25519_BASEPOINT",
    "x25519",
    "public_key",
    "shared_secret",
]

"""Exception hierarchy for the reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Subclasses separate the three
failure domains a caller can actually handle differently: bad key
material, malformed cipher payloads, and exhausted cover/vector sources.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ReproKeyError",
    "CipherFormatError",
    "CoverExhaustedError",
    "HardwareModelError",
    "FlowError",
    "SessionError",
    "HandshakeError",
    "KexError",
    "TenantRevokedError",
    "ReplayError",
    "UnknownEngineError",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ReproKeyError(ReproError):
    """Invalid key material (range, length, parse failures)."""


class CipherFormatError(ReproError):
    """A ciphertext container or vector stream is malformed or truncated."""


class CoverExhaustedError(ReproError):
    """The steganographic cover ran out of capacity for the message."""


class HardwareModelError(ReproError):
    """An RTL model was driven outside its contract (protocol misuse)."""


class FlowError(ReproError):
    """The FPGA CAD flow could not complete (capacity, unroutable, ...)."""


class SessionError(ReproError):
    """A secure-link session was misused or exhausted (see repro.net)."""


class HandshakeError(SessionError):
    """The peers could not agree on a link configuration or key."""


class KexError(HandshakeError):
    """The key-exchange phase failed (see repro.kex).

    Raised for malformed kex frames, contributory-behaviour failures
    (an all-zero X25519 shared secret from a low-order public key),
    confirmation-MAC mismatches, rejected resumption tickets, and
    downgrade attempts.  Subclassing :class:`HandshakeError` keeps
    handlers written against the pre-kex link working unchanged.
    """


class TenantRevokedError(KexError):
    """A tenant's key branch is revoked or expired (see repro.kex.keyring).

    Raised wherever a derivation for that tenant is attempted — which
    includes the middle of a responder handshake, since the auth secret
    is resolved per tenant from the ClientHello — so admission layers
    (the relay) can map it to a typed rejection rather than a generic
    handshake failure.  ``tenant_id`` carries the 16-byte wire form.
    """

    def __init__(self, message: str, *, tenant_id: bytes = b""):
        super().__init__(message)
        self.tenant_id = tenant_id


class ReplayError(SessionError):
    """A received packet's sequence number was already accepted."""


class UnknownEngineError(SessionError, ValueError):
    """An engine name is not present in the engine registry.

    Raised eagerly wherever an engine selector enters the system — the
    :class:`repro.api.Codec` constructor,
    :meth:`repro.net.session.SessionConfig.validate`, the CLI
    ``--engine`` flag and every core entry point that accepts a name —
    and its message always lists the registered engines.

    The multiple inheritance is deliberate compatibility glue: before
    the registry existed, a bad engine name surfaced as a plain
    :class:`ValueError` from the core layer and as a
    :class:`SessionError` from the link layer, so handlers written
    against either keep working.
    """

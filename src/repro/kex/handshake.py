"""The hello-v2 handshake state machine (sans-IO, two round trips).

Message flow, run *ahead* of the classic ``MHLO`` hello exchange on
the same stream (the link layer drives it; see DESIGN.md section 11)::

    initiator                                   responder
    ClientHello(offers, pub_c, rand_c, tenant, ticket?) -->
                  <-- ServerHello(mode, pub_s, rand_s, ticket', confirm_s)
    Finished(confirm_c) -->
    ... then the classic hello-v1 exchange under the derived root ...

Key schedule (all HKDF-SHA256; ``th`` is the SHA-256 transcript hash
over both hello frames, CRC trailers stripped and the server confirm
field zeroed)::

    ikm     = X25519(priv, peer_pub)         (ecdh mode)
            | ticket master secret           (resume mode)
    prk     = HKDF-Extract(salt=auth_secret, ikm)
    resume' = HKDF-Expand(prk, "mhhea-kex resumption" | rand_c | rand_s)
    master  = HKDF-Expand(prk, "mhhea-kex master" | th)
    confirm_s = HMAC(HKDF-Expand(master, "mhhea-kex confirm server"), th)
    confirm_c = HMAC(HKDF-Expand(master, "mhhea-kex confirm client"),
                     th | confirm_s)
    root    = Key.generate(HKDF-Expand(master, "mhhea-kex root key", 8))

Downgrade protection: the ClientHello's offered-mode bitmask and the
ServerHello's selected-mode byte are both inside ``th``, and both
confirmation MACs are keyed through ``auth_secret`` (which an on-path
attacker does not hold).  Tampering with either mode byte — or
substituting whole frames — changes ``th`` on exactly one side, so the
confirm MACs mismatch and the handshake raises
:class:`~repro.core.errors.KexError` instead of completing in a weaker
mode.  Falling back to the *pre-shared* (hello-v1-only) path is a link
policy decision made before any kex frame is sent, never a response to
what arrives on the wire — see ``repro.link.protocol``.

The resumption master secret is derived from ``prk`` and both fresh
randoms *before* the transcript closes, because the ticket that seals
it rides inside the ServerHello and therefore inside ``th`` — deriving
it from ``master`` would be circular.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from dataclasses import dataclass, field

from repro.core.errors import KexError
from repro.core.key import MAX_PAIRS, Key
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.kex import wire
from repro.kex.hkdf import hkdf_expand, hkdf_extract
from repro.kex.keyring import TENANT_ID_SIZE, TenantKeyring, normalize_tenant_id
from repro.kex.tickets import TicketVault
from repro.kex.x25519 import KEY_SIZE, public_key, shared_secret

__all__ = [
    "KEX_MODES",
    "ResumptionTicket",
    "KexConfig",
    "Handshake",
    "kex_auth_secret",
    "kex_config_for_key",
]

#: Every mode name a :class:`KexConfig` may list.  ``psk`` is a link
#: policy ("the classic hello-v1 pre-shared path is acceptable"), not a
#: hello-v2 wire mode — the state machine below only ever negotiates
#: ``ecdh`` and ``resume``.
KEX_MODES = ("ecdh", "resume", "psk")

_OFFER_BITS = {"ecdh": wire.OFFER_ECDH, "resume": wire.OFFER_RESUME}
_MODE_IDS = {"ecdh": wire.MODE_ECDH, "resume": wire.MODE_RESUME}
_MODE_NAMES = {v: k for k, v in _MODE_IDS.items()}

_RANDOM_SIZE = 16
_CONFIRM_SIZE = 32
_ZERO_CONFIRM = bytes(_CONFIRM_SIZE)

_TICKET_MAGIC = b"MTK1"


def kex_auth_secret(root: Key) -> bytes:
    """Derive a handshake-authentication secret from a pre-shared key.

    Lets deployments bootstrap authenticated ECDH from the root key
    they already share: the handshake then adds forward secrecy on top
    of the existing trust relationship.
    """
    ikm = root.to_bytes() + bytes([root.params.width, len(root)])
    return hkdf_expand(hkdf_extract(b"mhhea-kex psk auth", ikm),
                       b"mhhea-kex auth secret", 32)


def kex_config_for_key(root: Key, role: str, modes: tuple, *,
                       ticket: "ResumptionTicket | None" = None,
                       tickets: "TicketVault | None" = None) -> "KexConfig":
    """A :class:`KexConfig` bootstrapped from the pre-shared ``root``.

    The auth secret is :func:`kex_auth_secret` of ``root``, and the
    vector geometry is the root's.  A ``"responder"`` that allows
    ``resume`` and is given no ``tickets`` gets a ticket vault sealed
    under a secret derived from that auth secret.
    """
    auth = kex_auth_secret(root)
    if role == "responder" and tickets is None and "resume" in modes:
        tickets = TicketVault(hkdf_expand(auth, b"mhhea-kex ticket vault", 32))
    return KexConfig(auth_secret=auth, modes=modes, params=root.params,
                     n_pairs=len(root), ticket=ticket, tickets=tickets)


@dataclass(frozen=True)
class ResumptionTicket:
    """A client's half of a resumption: the sealed ticket plus the
    master secret it will prove knowledge of when redeeming."""

    ticket: bytes
    master_secret: bytes
    tenant_id: bytes

    def to_bytes(self) -> bytes:
        """Serialise for at-rest storage (the CLI's ``--ticket-file``)."""
        return (_TICKET_MAGIC + self.tenant_id + self.master_secret
                + struct.pack("<H", len(self.ticket)) + self.ticket)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ResumptionTicket":
        """Parse the :meth:`to_bytes` form; raises :class:`KexError`."""
        head = len(_TICKET_MAGIC) + TENANT_ID_SIZE + 32 + 2
        if len(blob) < head or blob[:4] != _TICKET_MAGIC:
            raise KexError("not a serialised resumption ticket")
        tenant_id = blob[4:4 + TENANT_ID_SIZE]
        master = blob[4 + TENANT_ID_SIZE:4 + TENANT_ID_SIZE + 32]
        (ticket_len,) = struct.unpack_from("<H", blob, head - 2)
        ticket = blob[head:]
        if len(ticket) != ticket_len:
            raise KexError("resumption ticket file is truncated")
        return cls(ticket, master, tenant_id)


@dataclass(frozen=True)
class KexConfig:
    """Everything one endpoint needs to run (or accept) hello-v2.

    ``modes`` is the endpoint's policy: which of ``ecdh`` / ``resume``
    / ``psk`` it will speak.  ``auth_secret`` is the shared
    authentication secret — or supply ``keyring`` and the secret is
    derived per tenant.  ``ticket`` (client) and ``tickets`` (server
    vault) drive resumption.
    """

    auth_secret: "bytes | None" = None
    modes: tuple = ("ecdh",)
    params: VectorParams = PAPER_PARAMS
    n_pairs: int = MAX_PAIRS
    tenant_id: "bytes | str" = b""
    ticket: "ResumptionTicket | None" = None
    tickets: "TicketVault | None" = None
    keyring: "TenantKeyring | None" = None

    def validate(self) -> None:
        """Reject inconsistent configs with :class:`KexError`."""
        unknown = [m for m in self.modes if m not in KEX_MODES]
        if unknown:
            raise KexError(f"unknown kex modes {unknown}; "
                           f"choose from {list(KEX_MODES)}")
        if not self.modes:
            raise KexError("kex modes must not be empty")
        if len(set(self.modes)) != len(self.modes):
            raise KexError(f"duplicate kex modes in {self.modes}")
        wants_kex = "ecdh" in self.modes or "resume" in self.modes
        if wants_kex and self.auth_secret is None and self.keyring is None:
            raise KexError("kex needs an auth_secret or a keyring")
        if self.params.width % 8 != 0:
            raise KexError(
                f"kex requires whole-byte vector widths, "
                f"got {self.params.width}"
            )
        if self.params.key_bits > 4:
            raise KexError("kex key derivation supports key_bits <= 4")
        if not 1 <= self.n_pairs <= MAX_PAIRS:
            raise KexError(f"n_pairs must be 1..{MAX_PAIRS}, "
                           f"got {self.n_pairs}")
        normalize_tenant_id(self.tenant_id)  # length check

    def resolve_auth_secret(self, tenant_id: bytes) -> bytes:
        """The authentication secret for ``tenant_id`` under this config."""
        if self.keyring is not None:
            return self.keyring.tenant_secret(tenant_id)
        if self.auth_secret is None:
            raise KexError("no auth secret available for kex")
        return self.auth_secret


@dataclass
class _Derived:
    """Output of the key schedule, shared by both roles."""

    master: bytes
    server_confirm: bytes
    client_confirm: bytes
    root_key: Key
    resumption_master: bytes
    transcript_hash: bytes = field(repr=False, default=b"")


class Handshake:
    """One endpoint's hello-v2 state machine.

    Sans-IO: :meth:`first_message` and :meth:`absorb` trade raw kex
    frames (as delimited by :class:`repro.net.framing.FrameDecoder`);
    the caller owns every byte of transport.  Any protocol violation
    raises :class:`KexError` and poisons the instance — the link layer
    maps that to a handshake abort, never a downgrade.
    """

    def __init__(self, config: KexConfig, role: str, *,
                 private_key: "bytes | None" = None,
                 random_bytes: "bytes | None" = None,
                 rng=None):
        if role not in ("initiator", "responder"):
            raise ValueError(f"role must be initiator/responder, got {role!r}")
        config.validate()
        if not any(m in config.modes for m in ("ecdh", "resume")):
            raise KexError("hello-v2 needs 'ecdh' or 'resume' in modes")
        self.config = config
        self.role = role
        self._rng = rng if rng is not None else os.urandom
        self._private = (private_key if private_key is not None
                         else self._rng(KEY_SIZE))
        self._random = (random_bytes if random_bytes is not None
                        else self._rng(_RANDOM_SIZE))
        self.done = False
        self.failed = False
        self.mode: "str | None" = None
        self.root_key: "Key | None" = None
        self.issued_ticket: "ResumptionTicket | None" = None
        self.tenant_id = normalize_tenant_id(config.tenant_id)
        self._derived: "_Derived | None" = None
        self._client_wire: "bytes | None" = None
        self._state = ("start" if role == "initiator" else "wait_client_hello")

    # -- initiator side ---------------------------------------------------

    def first_message(self) -> "bytes | None":
        """The opening ClientHello (initiator) or ``None`` (responder)."""
        if self.role != "initiator":
            return None
        if self._state != "start":
            raise KexError(f"first_message called in state {self._state}")
        offers = 0
        if "ecdh" in self.config.modes:
            offers |= wire.OFFER_ECDH
        ticket = b""
        if "resume" in self.config.modes and self.config.ticket is not None:
            offers |= wire.OFFER_RESUME
            ticket = self.config.ticket.ticket
        if not offers:
            raise self._fail(KexError(
                "nothing to offer: no 'ecdh' mode and no resumption ticket"
            ))
        # A resume-only offer never needs the Montgomery ladder: the
        # responder only reads ``public`` in ECDH mode, which it cannot
        # select without OFFER_ECDH.  Skipping it makes resumption
        # handshakes cheap enough to open hundreds of links per second
        # in pure Python (the relay's concurrent-link tests lean on it).
        public = (public_key(self._private) if offers & wire.OFFER_ECDH
                  else bytes(KEY_SIZE))
        hello = wire.ClientHello(
            offers=offers,
            width=self.config.params.width,
            n_pairs=self.config.n_pairs,
            public=public,
            random=self._random,
            tenant_id=self.tenant_id,
            ticket=ticket,
        )
        raw = hello.pack()
        self._client_wire = raw
        self._state = "wait_server_hello"
        return raw

    def absorb(self, raw: bytes) -> "bytes | None":
        """Feed one complete kex frame; returns the reply frame, if any."""
        if self.failed:
            raise KexError("handshake already failed")
        raw = bytes(raw)
        try:
            record = wire.unpack_record(raw)
        except Exception as exc:  # CipherFormatError included
            raise self._fail(KexError(f"malformed kex frame: {exc}"))
        if self._state == "wait_server_hello":
            return self._absorb_server_hello(record)
        if self._state == "wait_client_hello":
            return self._absorb_client_hello(record, raw)
        if self._state == "wait_finished":
            return self._absorb_finished(record)
        raise self._fail(KexError(
            f"unexpected kex frame (type {record.msg_type}) "
            f"in state {self._state}"
        ))

    def _absorb_server_hello(self, record: wire.KexRecord) -> bytes:
        try:
            hello = wire.ServerHello.unpack(record)
        except KexError as exc:
            raise self._fail(exc)
        mode = _MODE_NAMES.get(hello.mode)
        if mode is None:
            raise self._fail(KexError(f"server selected unknown mode "
                                      f"{hello.mode}"))
        if mode not in self.config.modes:
            raise self._fail(KexError(
                f"server selected mode {mode!r} we never offered"
            ))
        if mode == "resume":
            if self.config.ticket is None:
                raise self._fail(KexError(
                    "server selected resumption but no ticket was offered"
                ))
            ikm = self.config.ticket.master_secret
        else:
            try:
                ikm = shared_secret(self._private, hello.public)
            except KexError as exc:
                raise self._fail(exc)
        # Reconstruct the transcript form: confirm zeroed, CRC stripped.
        zero = hello.with_confirm(_ZERO_CONFIRM).pack()
        transcript = (self._client_wire[:-2]
                      + wire.unpack_record(zero).transcript_bytes)
        derived = self._derive(ikm, self._random, hello.random, transcript)
        if not hmac.compare_digest(derived.server_confirm, hello.confirm):
            raise self._fail(KexError(
                "server confirmation MAC mismatch (tampered transcript, "
                "wrong auth secret, or downgrade attempt)"
            ))
        self._derived = derived
        self.mode = mode
        self.root_key = derived.root_key
        if hello.ticket:
            self.issued_ticket = ResumptionTicket(
                ticket=hello.ticket,
                master_secret=derived.resumption_master,
                tenant_id=self.tenant_id,
            )
        self.done = True
        self._state = "done"
        return wire.Finished(hello.mode, derived.client_confirm).pack()

    # -- responder side ---------------------------------------------------

    def _absorb_client_hello(self, record: wire.KexRecord,
                             raw: bytes) -> bytes:
        try:
            hello = wire.ClientHello.unpack(record)
        except KexError as exc:
            raise self._fail(exc)
        if hello.width != self.config.params.width:
            raise self._fail(KexError(
                f"client wants {hello.width}-bit vectors, "
                f"this link is configured for {self.config.params.width}"
            ))
        if hello.n_pairs != self.config.n_pairs:
            raise self._fail(KexError(
                f"client wants {hello.n_pairs} key pairs, "
                f"this link is configured for {self.config.n_pairs}"
            ))
        self.tenant_id = hello.tenant_id
        mode = None
        ikm = None
        if (hello.offers & wire.OFFER_RESUME and "resume" in self.config.modes
                and hello.ticket and self.config.tickets is not None):
            redeemed = self.config.tickets.redeem(hello.ticket)
            if redeemed is not None:
                master, ticket_tenant = redeemed
                if ticket_tenant == hello.tenant_id:
                    mode, ikm = "resume", master
        if mode is None:
            if not (hello.offers & wire.OFFER_ECDH
                    and "ecdh" in self.config.modes):
                raise self._fail(KexError(
                    "no common kex mode (resumption rejected or not "
                    "offered, and ECDH unavailable)"
                ))
            mode = "ecdh"
            try:
                ikm = shared_secret(self._private, hello.public)
            except KexError as exc:
                raise self._fail(exc)
        public = (public_key(self._private) if mode == "ecdh"
                  else bytes(KEY_SIZE))
        # The resumption master must exist before the transcript closes
        # (the sealed ticket rides inside the ServerHello): derive it
        # from prk + both randoms, then seal, then close the transcript.
        auth = self.config.resolve_auth_secret(hello.tenant_id)
        prk = hkdf_extract(auth, ikm)
        resumption = hkdf_expand(
            prk, b"mhhea-kex resumption" + hello.random + self._random, 32)
        new_ticket = b""
        if self.config.tickets is not None:
            new_ticket = self.config.tickets.issue(resumption,
                                                   hello.tenant_id)
        reply = wire.ServerHello(
            mode=_MODE_IDS[mode],
            public=public,
            random=self._random,
            ticket=new_ticket,
            confirm=_ZERO_CONFIRM,
        )
        transcript = (bytes(raw)[:-2]
                      + wire.unpack_record(reply.pack()).transcript_bytes)
        derived = self._derive(ikm, hello.random, self._random, transcript,
                               prk=prk, resumption=resumption,
                               tenant_id=hello.tenant_id)
        self._derived = derived
        self.mode = mode
        self.root_key = derived.root_key
        if new_ticket:
            self.issued_ticket = ResumptionTicket(
                ticket=new_ticket,
                master_secret=resumption,
                tenant_id=hello.tenant_id,
            )
        self._state = "wait_finished"
        return reply.with_confirm(derived.server_confirm).pack()

    def _absorb_finished(self, record: wire.KexRecord) -> None:
        try:
            finished = wire.Finished.unpack(record)
        except KexError as exc:
            raise self._fail(exc)
        if _MODE_NAMES.get(finished.mode) != self.mode:
            raise self._fail(KexError(
                f"Finished mode {finished.mode} does not match the "
                f"negotiated {self.mode!r}"
            ))
        if not hmac.compare_digest(self._derived.client_confirm,
                                   finished.confirm):
            raise self._fail(KexError(
                "client confirmation MAC mismatch (tampered transcript, "
                "wrong auth secret, or downgrade attempt)"
            ))
        self.done = True
        self._state = "done"
        return None

    # -- key schedule -----------------------------------------------------

    def _derive(self, ikm: bytes, client_random: bytes,
                server_random: bytes, transcript: bytes, *,
                prk: "bytes | None" = None,
                resumption: "bytes | None" = None,
                tenant_id: "bytes | None" = None) -> _Derived:
        if prk is None:
            auth = self.config.resolve_auth_secret(
                tenant_id if tenant_id is not None else self.tenant_id)
            prk = hkdf_extract(auth, ikm)
        if resumption is None:
            resumption = hkdf_expand(
                prk, b"mhhea-kex resumption" + client_random + server_random,
                32)
        th = hashlib.sha256(transcript).digest()
        master = hkdf_expand(prk, b"mhhea-kex master" + th, 32)
        server_key = hkdf_expand(master, b"mhhea-kex confirm server", 32)
        client_key = hkdf_expand(master, b"mhhea-kex confirm client", 32)
        server_confirm = hmac.new(server_key, th, hashlib.sha256).digest()
        client_confirm = hmac.new(client_key, th + server_confirm,
                                  hashlib.sha256).digest()
        seed_bytes = hkdf_expand(master, b"mhhea-kex root key", 8)
        root_key = Key.generate(
            seed=int.from_bytes(seed_bytes, "little"),
            n_pairs=self.config.n_pairs, params=self.config.params)
        return _Derived(master=master, server_confirm=server_confirm,
                        client_confirm=client_confirm, root_key=root_key,
                        resumption_master=resumption, transcript_hash=th)

    def _fail(self, exc: KexError) -> KexError:
        self.failed = True
        self._state = "failed"
        return exc

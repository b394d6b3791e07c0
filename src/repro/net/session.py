"""Secure-link sessions: nonce schedules, key ratcheting, replay windows.

The packet codec (:mod:`repro.core.stream`) leaves the hard stateful
questions to its caller: which nonce to use next, when to change keys,
and how a receiver tells a fresh packet from a replayed one.  This module
answers them once, in one place, per DESIGN.md sections 4 and 5:

* **Nonce schedule** — per-direction sequence numbers map bijectively
  onto header nonces via :func:`nonce_for_seq`, skipping the values whose
  low ``width`` bits are zero (they would freeze the LFSR).  A sender can
  therefore never reuse a nonce, and a receiver can recover the sequence
  number from the (authentic-by-CRC) header alone.
* **Key ratchet** — every direction of every session works under its own
  key, derived from the shared root key, the session id and the epoch
  number.  After ``rekey_interval`` packets the epoch advances, which
  keeps the number of vectors exposed under one key far below the LFSR
  period.  Both ends derive the same schedule with no extra signalling,
  and the epoch of a packet is a pure function of its sequence number, so
  rekeying survives packet loss.
* **Replay / reordering detection** — sequence numbers must strictly
  increase; a duplicate or stale number raises
  :class:`~repro.core.errors.ReplayError` before any decryption work, and
  skipped numbers are counted as gaps in the session metrics.

The nonce-reuse hazard itself is documented once in DESIGN.md section 4,
linked from both :func:`repro.core.stream.encrypt_packet` and
:class:`Session`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core import engines as _engines
from repro.core.errors import ReplayError, SessionError
from repro.core.key import Key
from repro.core.stream import (
    ALGORITHM_HHEA,
    ALGORITHM_MHHEA,
    NONCE_MAX,
    PacketHeader,
    _extract_verified,
    _verify_parsed,
    decrypt_packet,
    encrypt_packet,
)
from repro.obs import core as _obs
from repro.net.framing import MAX_PAYLOAD_DEFAULT
from repro.net.metrics import SessionMetrics
from repro.util.lfsr import max_period

# repro.parallel.pool is imported for annotations only: the async
# methods submit encrypt_packet/decrypt_packet to whatever pool the
# caller passes, and importing the process-pool machinery here would
# drag multiprocessing (and thus the socket module) into every importer,
# breaking the sans-IO guarantee of repro.link — this module is part of
# its import closure.
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.pool import EncryptionPool

__all__ = [
    "DEFAULT_REKEY_INTERVAL",
    "DEFAULT_PARALLEL_THRESHOLD",
    "MAX_PAYLOAD_DEFAULT",
    "SessionConfig",
    "Session",
    "nonce_for_seq",
    "seq_for_nonce",
    "derive_epoch_key",
    "key_fingerprint",
]

#: Packets per direction before the key ratchets forward (DESIGN.md §5).
DEFAULT_REKEY_INTERVAL = 1024

#: Smallest plaintext (bytes) worth shipping to a worker process.  Below
#: this the pickle/IPC round trip costs more than the cipher work saved.
DEFAULT_PARALLEL_THRESHOLD = 32 * 1024

#: Direction labels mixed into the per-direction key derivation.
_LABEL_I2R = b"i->r"
_LABEL_R2I = b"r->i"


def nonce_for_seq(seq: int, width: int) -> int:
    """Header nonce for sequence number ``seq`` (0-based) on one direction.

    The map is ``seq + 1`` with every multiple of ``2**width`` skipped,
    because those values reduce to the frozen all-zero LFSR seed (see
    :func:`repro.core.stream.validate_nonce`).  It is a strict-monotonic
    bijection, so distinct sequence numbers can never collide on a nonce.
    Raises :class:`SessionError` once the 32-bit nonce field is exhausted.
    """
    if seq < 0:
        raise SessionError(f"sequence number must be non-negative, got {seq}")
    nonce = seq + 1 + seq // ((1 << width) - 1)
    if nonce > NONCE_MAX:
        raise SessionError(
            f"nonce space exhausted at sequence {seq}: the 32-bit header "
            f"field cannot address more packets on this direction"
        )
    return nonce


def seq_for_nonce(nonce: int, width: int) -> int:
    """Inverse of :func:`nonce_for_seq` (receiver side).

    Raises :class:`SessionError` for nonces a conforming sender can never
    emit (zero, out of field range, or reducing to the zero LFSR state).
    """
    if not 0 < nonce <= NONCE_MAX:
        raise SessionError(f"nonce {nonce:#x} outside the 32-bit field")
    if nonce & ((1 << width) - 1) == 0:
        raise SessionError(
            f"nonce {nonce:#x} is a multiple of 2**{width}; no conforming "
            f"sender emits it"
        )
    return nonce - 1 - (nonce >> width)


def key_fingerprint(key: Key) -> bytes:
    """8-byte public fingerprint of a root key for handshake comparison.

    Deliberately one-way (SHA-256 based) so the hello frame can prove key
    agreement without putting key material on the wire.
    """
    material = b"mhhea-net-fp\x00" + bytes([key.params.width]) + key.to_bytes()
    return hashlib.sha256(material).digest()[:8]


def derive_epoch_key(root: Key, session_id: bytes, label: bytes,
                     epoch: int) -> Key:
    """Key for ``epoch`` of one direction of one session.

    Mixes the root key bytes, the 8-byte session id, the direction label
    and the epoch counter through SHA-256 and expands the digest into a
    fresh schedule with the same geometry as the root.  Distinct sessions
    and distinct directions therefore never share working keys even
    though they share the long-lived root, which is what makes the
    per-direction nonce schedules safe link-wide.
    """
    if epoch < 0:
        raise SessionError(f"epoch must be non-negative, got {epoch}")
    material = (b"mhhea-net-epoch\x00" + bytes([root.params.width])
                + root.to_bytes() + session_id + label
                + epoch.to_bytes(8, "little"))
    seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "little")
    return Key.generate(seed=seed, n_pairs=len(root), params=root.params)


@dataclass(frozen=True)
class SessionConfig:
    """Link policy both peers must agree on (checked in the handshake).

    ``engine``, ``parallel_workers`` and ``parallel_threshold`` are the
    *local* knobs: they select the cipher implementation (a registered
    name, by default :data:`repro.core.engines.DEFAULT_ENGINE_NAME`) and
    the process-pool offload policy for this endpoint only.  All
    settings of these knobs emit byte-identical packets, so they are
    deliberately absent from the hello frame — peers may mix freely.

    ``parallel_workers > 0`` makes :class:`~repro.net.server.SecureLinkServer`
    and :class:`~repro.net.client.SecureLinkClient` start an
    :class:`~repro.parallel.pool.EncryptionPool` and offload the cipher
    work of any payload of at least ``parallel_threshold`` plaintext
    bytes to it, keeping the event loop responsive and spreading large
    transfers across cores.
    """

    algorithm: int = ALGORITHM_MHHEA
    rekey_interval: int = DEFAULT_REKEY_INTERVAL
    max_payload: int = MAX_PAYLOAD_DEFAULT
    engine: str = _engines.DEFAULT_ENGINE_NAME
    parallel_workers: int = 0
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD

    def validate(self, width: int) -> None:
        """Raise :class:`SessionError` on a policy the link cannot honour."""
        if self.parallel_workers < 0:
            raise SessionError(
                f"parallel_workers must be >= 0, got {self.parallel_workers}"
            )
        if self.parallel_threshold < 1:
            raise SessionError(
                f"parallel_threshold must be >= 1, got {self.parallel_threshold}"
            )
        if self.algorithm not in (ALGORITHM_HHEA, ALGORITHM_MHHEA):
            raise SessionError(f"unknown algorithm id {self.algorithm}")
        # Eager registry validation: UnknownEngineError subclasses
        # SessionError, so pre-registry handlers keep working.
        _engines.check_engine_name(self.engine)
        if self.rekey_interval < 1:
            raise SessionError(
                f"rekey_interval must be >= 1, got {self.rekey_interval}"
            )
        if self.rekey_interval > max_period(width):
            raise SessionError(
                f"rekey_interval {self.rekey_interval} exceeds the "
                f"{width}-bit LFSR period {max_period(width)}; one epoch "
                f"would repeat hiding-vector streams (DESIGN.md §4)"
            )
        if self.max_payload < 1:
            raise SessionError(
                f"max_payload must be >= 1, got {self.max_payload}"
            )

    def max_wire_payload(self, width: int) -> int:
        """Ceiling for one packet's *wire* payload, for frame decoders.

        ``max_payload`` caps the plaintext a sender accepts; the hiding
        cipher then expands it — in the worst case every message bit
        costs one whole ``width``-bit vector (a single-bit replacement
        window), i.e. ``width`` wire bytes per plaintext byte.  A
        receiver must therefore frame up to this bound or it would
        reject legal packets from a conforming peer.
        """
        return self.max_payload * width


class _SendHalf:
    """Outbound direction: owns the sequence counter and epoch key."""

    def __init__(self, root: Key, session_id: bytes, label: bytes,
                 config: SessionConfig, metrics: SessionMetrics):
        self._root = root
        self._session_id = session_id
        self._label = label
        self._config = config
        self._metrics = metrics
        self._backend = _engines.get_engine(config.engine)
        self._next_seq = 0
        self._epoch = 0
        self._key = derive_epoch_key(root, session_id, label, 0)

    @property
    def next_seq(self) -> int:
        """Sequence number the next encrypt will consume."""
        return self._next_seq

    def _reserve(self, payload: bytes) -> tuple[Key, int]:
        """Check ``payload`` and consume the next sequence number.

        Ratchets the send key at epoch boundaries (counted in metrics)
        and returns the key and nonce the packet is encrypted under.
        The sequence number stays consumed even if encryption then
        fails: nonces are never reused, failed or not (DESIGN.md §4).
        """
        config = self._config
        if len(payload) > config.max_payload:
            raise SessionError(
                f"payload of {len(payload)} bytes exceeds the session "
                f"limit of {config.max_payload}"
            )
        seq = self._next_seq
        epoch = seq // config.rekey_interval
        if epoch != self._epoch:
            self._key = derive_epoch_key(self._root, self._session_id,
                                         self._label, epoch)
            self._epoch = epoch
            self._metrics.record_rekey("tx")
        nonce = nonce_for_seq(seq, self._root.params.width)
        self._next_seq = seq + 1
        return self._key, nonce

    def encrypt(self, payload: bytes) -> bytes:
        key, nonce = self._reserve(payload)
        packet = encrypt_packet(payload, key, nonce=nonce,
                                algorithm=self._config.algorithm,
                                engine=self._backend)
        self._metrics.record_tx(len(payload), len(packet))
        return packet

    async def encrypt_async(self, payload: bytes,
                            pool: EncryptionPool | None) -> bytes:
        """Encrypt one payload, awaiting the pool for large ones.

        The sequence number is reserved synchronously, before the first
        await, so several calls may be in flight concurrently — the
        caller's only obligation is to *start* them in send order and
        write the resulting packets in that same order (the link's
        writer coroutine pipelines exactly this way).
        """
        config = self._config
        if pool is None or len(payload) < config.parallel_threshold:
            return self.encrypt(payload)
        key, nonce = self._reserve(payload)
        packet = await pool.run_async(encrypt_packet, payload, key, nonce,
                                      config.algorithm, config.engine)
        self._metrics.record_tx(len(payload), len(packet))
        return packet


class _RecvHalf:
    """Inbound direction: replay window, gap accounting, epoch tracking.

    Every inbound packet runs one sequence: :meth:`_admit` (header
    checks and replay gate), then verification and extraction, then
    :meth:`_commit`.  Only verification and extraction may move to a
    worker pool, as one ``decrypt_packet`` job (:meth:`decrypt_async`).
    """

    def __init__(self, root: Key, session_id: bytes, label: bytes,
                 config: SessionConfig, metrics: SessionMetrics):
        self._root = root
        self._session_id = session_id
        self._label = label
        self._config = config
        self._metrics = metrics
        self._backend = _engines.get_engine(config.engine)
        self._last_seq = -1
        self._epoch = 0
        self._key = derive_epoch_key(root, session_id, label, 0)

    @property
    def last_seq(self) -> int:
        """Highest sequence number accepted so far (-1 before any)."""
        return self._last_seq

    def _admit(self, packet: bytes) -> tuple[int, PacketHeader, Key]:
        """Header checks and replay gate; returns sequence, header, key.

        Runs *before* any decryption work so damaged, replayed or
        misconfigured packets are rejected cheaply.  The returned key is
        derived for the *packet's* epoch but not stored: no receiver
        state — replay window, epoch, cached key — moves until the
        packet authenticates in :meth:`_commit`.  (A corrupted nonce can
        spell an arbitrary epoch; committing its key pre-verification
        would let one flipped bit ratchet the receiver's state around
        and poison the rekey counters with wild excursions.)
        """
        header = PacketHeader.unpack(packet)
        width = self._root.params.width
        if header.width != width:
            raise SessionError(
                f"peer sent {header.width}-bit vectors on a {width}-bit link"
            )
        if header.algorithm != self._config.algorithm:
            raise SessionError(
                f"peer switched to algorithm {header.algorithm} mid-session"
            )
        seq = seq_for_nonce(header.nonce, width)
        if seq <= self._last_seq:
            self._metrics.record_replay(seq)
            raise ReplayError(
                f"sequence {seq} already accepted (last was {self._last_seq})"
                f" — replayed or reordered packet"
            )
        epoch = seq // self._config.rekey_interval
        key = self._key
        if epoch != self._epoch:
            key = derive_epoch_key(self._root, self._session_id,
                                   self._label, epoch)
        return seq, header, key

    def _commit(self, seq: int, packet: bytes, payload: bytes,
                key: Key) -> None:
        """Advance replay window, epoch and key; account one packet.

        Committed sequence numbers are strictly increasing, so the
        committed epoch is monotone and ``rx.rekeys`` counts exactly the
        epochs genuine traffic crossed — never a corrupted nonce's.
        """
        epoch = seq // self._config.rekey_interval
        if epoch != self._epoch:
            self._metrics.record_rekey("rx", epoch - self._epoch)
            self._epoch = epoch
            self._key = key
        gap = seq - self._last_seq - 1
        self._last_seq = seq
        self._metrics.record_rx(len(payload), len(packet), gap=gap)

    def decrypt_batch(self, packets, accepted=None) -> list[bytes]:
        """Admit, verify, extract and commit each packet in order.

        Each packet is admitted only after the one before it committed,
        so a batch leaves exactly the state sequential calls would:
        commits are per packet, not transactional, and packets before a
        failure stay accepted.  Pass a list as ``accepted`` to receive
        ``(payload, seq)`` for each committed packet even when a later
        one raises — the link protocol uses this to emit events for the
        accepted prefix of a damaged burst.
        """
        return self._receive(((packet, self._admit(packet))
                              for packet in packets), accepted)

    def _receive(self, admitted, accepted=None) -> list[bytes]:
        """Verify, extract and commit each ``(packet, admission)`` pair.

        The header parsed at admission is reused for verification and
        extraction, and one engine-op observability update covers the
        whole run.  Structural or CRC damage is counted and re-raised
        with the replay window untouched, so a valid retransmission of
        that sequence number is still acceptable.
        """
        backend = self._backend
        registry = _obs.get_registry()
        start = registry.clock() if registry.enabled else 0.0
        payloads: list[bytes] = []
        try:
            for packet, (seq, header, key) in admitted:
                try:
                    _verify_parsed(packet, header)
                    payload = _extract_verified(packet, header, key, backend)
                except Exception:
                    self._metrics.record_crc_failure()
                    raise
                self._commit(seq, packet, payload, key)
                payloads.append(payload)
                if accepted is not None:
                    accepted.append((payload, seq))
        finally:
            if payloads and registry.enabled:
                registry.counter("repro_engine_ops_total",
                                 engine=backend.name,
                                 op="decrypt").inc(len(payloads))
                registry.histogram(
                    "repro_engine_op_seconds", engine=backend.name,
                    op="decrypt").observe(registry.clock() - start)
        return payloads

    async def decrypt_async(self, packet: bytes,
                            pool: EncryptionPool | None) -> bytes:
        """Decrypt one packet, extracting on the pool for large ones.

        Admission runs synchronously before the await; the plaintext
        size advertised by the header (``n_bits // 8``) decides offload
        against ``config.parallel_threshold``.  Awaits on one direction
        must be serialised by the caller (the link's single reader
        coroutine does), or replay-window commits could interleave.
        """
        admission = self._admit(packet)
        seq, header, key = admission
        config = self._config
        if pool is None or header.n_bits // 8 < config.parallel_threshold:
            return self._receive(((packet, admission),))[0]
        try:
            payload = await pool.run_async(decrypt_packet, packet, key,
                                           config.engine)
        except Exception:
            self._metrics.record_crc_failure()
            raise
        self._commit(seq, packet, payload, key)
        return payload


class Session:
    """One duplex secure-link endpoint.

    A session binds a shared root :class:`~repro.core.key.Key`, an 8-byte
    session id (normally minted by the initiator and echoed in the
    handshake) and a :class:`SessionConfig` into two independent simplex
    directions, each with its own derived key, nonce schedule and replay
    window.  ``role`` decides which direction label this endpoint sends
    on: the ``"initiator"`` sends initiator-to-responder traffic, the
    ``"responder"`` the reverse, so two correctly-paired endpoints never
    draw nonces from the same (key, direction) space — the nonce-reuse
    hazard of DESIGN.md section 4 is structurally impossible as long as
    session ids are unique per connection.
    """

    ROLES = ("initiator", "responder")

    def __init__(self, root, role: str, session_id: bytes,
                 config: SessionConfig | None = None,
                 metrics: SessionMetrics | None = None):
        if not isinstance(root, Key):
            # A repro.api.Codec (duck-typed: importing repro.api here
            # would be circular).  The codec supplies both the root key
            # and — unless the caller overrides it — the link policy.
            codec, root = root, root.key
            if config is None:
                config = codec.session_config()
        if role not in self.ROLES:
            raise SessionError(f"role must be one of {self.ROLES}, got {role!r}")
        if len(root) == 0:
            # Caught here, not deep inside derive_epoch_key: a hollow key
            # would otherwise surface as a confusing ReproKeyError from the
            # epoch-key generator on the first send.
            raise SessionError(
                "root key has no pairs; per-direction key derivation needs "
                "at least one key pair"
            )
        if len(session_id) != 8:
            raise SessionError(
                f"session id must be 8 bytes, got {len(session_id)}"
            )
        params = root.params
        if params.width % 8 != 0:
            raise SessionError(
                f"link sessions need byte-multiple vector widths, got {params.width}"
            )
        if params.key_bits > 4:
            raise SessionError(
                f"link sessions need serialisable keys (key_bits <= 4); "
                f"{params.width}-bit vectors use {params.key_bits}"
            )
        self._config = config or SessionConfig()
        self._config.validate(params.width)
        self.role = role
        self.session_id = session_id
        self.metrics = metrics if metrics is not None else SessionMetrics()
        send_label, recv_label = (
            (_LABEL_I2R, _LABEL_R2I) if role == "initiator"
            else (_LABEL_R2I, _LABEL_I2R)
        )
        self._send = _SendHalf(root, session_id, send_label, self._config,
                               self.metrics)
        self._recv = _RecvHalf(root, session_id, recv_label, self._config,
                               self.metrics)

    @property
    def config(self) -> SessionConfig:
        """The (validated) link policy this session runs under."""
        return self._config

    @property
    def next_send_seq(self) -> int:
        """Sequence number the next :meth:`encrypt` call will consume."""
        return self._send.next_seq

    @property
    def last_recv_seq(self) -> int:
        """Highest sequence number accepted so far (-1 before any)."""
        return self._recv.last_seq

    def encrypt(self, payload: bytes) -> bytes:
        """Encrypt ``payload`` into the next outbound packet.

        Consumes one sequence number (and its nonce) per call and
        ratchets the send key at epoch boundaries.  Raises
        :class:`SessionError` if the payload exceeds
        ``config.max_payload`` or the nonce space is exhausted.
        """
        return self._send.encrypt(payload)

    async def encrypt_async(self, payload: bytes,
                            pool: EncryptionPool | None = None) -> bytes:
        """Asyncio variant of :meth:`encrypt` that can offload to ``pool``.

        Offload happens when the payload is at least
        ``config.parallel_threshold`` bytes; otherwise (or with
        ``pool=None``) this is just :meth:`encrypt`.  Sequence numbers
        are reserved synchronously at call time, so calls may overlap in
        flight — start them in send order and write the packets in that
        order (the secure-link writer pipelines up to ``workers + 1``).
        """
        return await self._send.encrypt_async(payload, pool)

    async def decrypt_async(self, packet: bytes,
                            pool: EncryptionPool | None = None) -> bytes:
        """Asyncio variant of :meth:`decrypt` that can offload to ``pool``.

        Replay and header checks always run inline before the await;
        only the cipher work itself moves to the pool, and only when the
        header advertises at least ``config.parallel_threshold``
        plaintext bytes.  Error contract matches :meth:`decrypt`.
        """
        return await self._recv.decrypt_async(packet, pool)

    def decrypt(self, packet: bytes) -> bytes:
        """Authenticate ordering, decrypt, and account one inbound packet.

        Raises :class:`~repro.core.errors.ReplayError` for duplicated or
        reordered sequence numbers, :class:`SessionError` for packets that
        contradict the negotiated link parameters, and
        :class:`~repro.core.errors.CipherFormatError` for structural or
        CRC damage (counted in ``metrics.rx.crc_failures``).
        """
        return self._recv.decrypt_batch((packet,))[0]

    def decrypt_batch(self, packets, accepted: list | None = None) -> list[bytes]:
        """Decrypt a run of consecutive inbound packets in one call.

        The batch analogue of :meth:`decrypt`, with identical semantics
        and error contract but one observability update per batch — the
        link protocol's receive path feeds every consecutive run of
        ciphertext frames through here.  Packets decrypted before a
        mid-batch failure remain committed to the replay window, exactly
        as sequential :meth:`decrypt` calls would leave them; pass a
        list as ``accepted`` to collect the ``(payload, seq)`` prefix
        that survived.
        """
        return self._recv.decrypt_batch(packets, accepted)

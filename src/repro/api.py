"""``repro.api`` — the unified :class:`Codec` facade.

The paper contributes one cipher with interchangeable implementations;
this module gives the reproduction one front door with interchangeable
backends.  A :class:`Codec` binds everything that used to be re-threaded
through every call — root :class:`~repro.core.key.Key` (and therefore
:class:`~repro.core.params.VectorParams`), the engine backend resolved
once from the registry (:mod:`repro.core.engines`), the packet policy
(algorithm id, chunk size, nonce defaults) and an optional
:class:`~repro.parallel.pool.EncryptionPool` — and then exposes the
whole lifecycle:

* :meth:`Codec.encrypt` / :meth:`Codec.decrypt` — one self-describing
  packet (the :mod:`repro.core.stream` wire format, byte-identical);
* :meth:`Codec.encrypt_packets` / :meth:`Codec.decrypt_packets` —
  ordered batches, fanned across the pool when one is bound;
* :meth:`Codec.seal_blob` / :meth:`Codec.open_blob` — chunked
  multi-packet blobs for large payloads (the :mod:`repro.parallel`
  framing, byte-identical for every worker count);
* :meth:`Codec.link` — a sans-IO :class:`repro.link.LinkProtocol`
  bound to the codec's link policy, for custom transports;
* :func:`connect` / :func:`serve` — secure-link endpoints whose session
  policy derives from the codec, on any transport
  (``"tcp"`` asyncio, ``"sync"`` blocking sockets, ``"udp"`` datagrams,
  ``"memory"`` in-process).

Resource ownership is explicit: a codec that *starts* a pool (because
``workers > 0``) owns it and releases it on :meth:`Codec.close` /
``with``-exit; a pool *passed in* is shared and never closed.  Wire
compatibility is a hard invariant — every path through the facade emits
bytes identical to the low-level entry points, pinned by the differential
suite in ``tests/test_api.py``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import engines as _engines
from repro.core.errors import CipherFormatError
from repro.core.key import Key
from repro.obs import core as _obs
from repro.core.stream import (
    ALGORITHM_HHEA,
    ALGORITHM_MHHEA,
    decrypt_packet,
    encrypt_packet,
)
from repro.kex.handshake import KexConfig, kex_auth_secret
from repro.kex.hkdf import hkdf_expand
from repro.kex.tickets import TicketVault
from repro.link.protocol import LinkProtocol
from repro.net.client import SecureLinkClient
from repro.net.server import DEFAULT_QUEUE_DEPTH, SecureLinkServer
from repro.net.session import (
    DEFAULT_PARALLEL_THRESHOLD,
    DEFAULT_REKEY_INTERVAL,
    MAX_PAYLOAD_DEFAULT,
    SessionConfig,
)
from repro.parallel.pipeline import (
    DEFAULT_BASE_NONCE,
    DEFAULT_CHUNK_SIZE,
    ParallelCodec,
)
from repro.parallel.pool import EncryptionPool

__all__ = [
    "Codec",
    "open_codec",
    "connect",
    "serve",
    "relay_serve",
]

#: Accepted spellings of the packet-format algorithm selector.
_ALGORITHM_IDS = {
    "mhhea": ALGORITHM_MHHEA,
    "hhea": ALGORITHM_HHEA,
    ALGORITHM_MHHEA: ALGORITHM_MHHEA,
    ALGORITHM_HHEA: ALGORITHM_HHEA,
}


def _algorithm_id(algorithm) -> int:
    """Normalise ``"mhhea"``/``"hhea"``/wire id to the wire id."""
    try:
        return _ALGORITHM_IDS[algorithm]
    except (KeyError, TypeError):
        raise CipherFormatError(
            f"algorithm must be 'mhhea', 'hhea' or a wire id "
            f"({ALGORITHM_MHHEA}/{ALGORITHM_HHEA}), got {algorithm!r}"
        ) from None


class Codec:
    """Key + params + engine + packet policy + pool, bound once.

    Construction resolves and validates everything eagerly: the key (a
    :class:`~repro.core.key.Key` or its ``keygen`` hex form), the engine
    (registry name, :class:`~repro.core.engines.Engine` instance, or
    ``None`` for the registry default — unknown names raise
    :class:`~repro.core.errors.UnknownEngineError` listing the
    registered engines), the algorithm (``"mhhea"``/``"hhea"`` or the
    wire id) and the pool policy.  After that, no call on the facade
    re-negotiates anything.

    Usage::

        with Codec(key, engine="fast", workers=4) as codec:
            packet = codec.encrypt(b"one payload", nonce=0x5EED)
            blob = codec.seal_blob(big_payload)
            assert codec.open_blob(blob) == big_payload

    ``workers=0`` (the default) runs everything inline.  ``workers=N``
    starts an :class:`~repro.parallel.pool.EncryptionPool` lazily on
    first use and owns it; passing ``pool=`` shares an existing pool
    (never closed by this codec).  Either way the wire bytes are
    identical — pooling, like the engine, is a purely local throughput
    knob.  Batches and blobs reach the pool only through one
    :class:`~repro.parallel.pipeline.ParallelCodec`, which makes the
    inline-or-pool decision for both.
    """

    def __init__(self, key, *,
                 algorithm="mhhea",
                 engine: "str | _engines.Engine | None" = None,
                 workers: int = 0,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
                 rekey_interval: int = DEFAULT_REKEY_INTERVAL,
                 max_payload: int = MAX_PAYLOAD_DEFAULT,
                 pool: EncryptionPool | None = None):
        if isinstance(key, str):
            key = Key.from_hex(key)
        if not isinstance(key, Key):
            raise TypeError(
                f"key must be a repro.core.key.Key or its hex form, "
                f"got {type(key).__name__}"
            )
        self.key = key
        self.algorithm = _algorithm_id(algorithm)
        #: The resolved engine backend (an Engine instance, never a name).
        self.engine = _engines.get_engine(engine)
        # Validates workers, chunk_size and whether a pooled engine can
        # be re-resolved by name inside the workers.
        self._parallel = ParallelCodec(key, workers, chunk_size=chunk_size,
                                       algorithm=self.algorithm,
                                       engine=self.engine, pool=pool)
        self.workers = workers
        self.chunk_size = chunk_size
        self.parallel_threshold = parallel_threshold
        self.rekey_interval = rekey_interval
        self.max_payload = max_payload
        self._closed = False

    # -- introspection ----------------------------------------------------

    @property
    def engine_name(self) -> str:
        """Registry name of the resolved engine backend."""
        return self.engine.name

    @property
    def params(self):
        """The hiding-vector geometry bound through the key."""
        return self.key.params

    @property
    def pool(self) -> EncryptionPool | None:
        """The bound pool, if any (shared, or owned-and-started)."""
        return self._parallel.pool

    def _check_open(self) -> None:
        """Uniform use-after-close guard for every crypto entry point.

        Checked on inline paths too — a closed codec must fail the same
        way regardless of payload size, not only once a pool would
        engage.
        """
        if self._closed:
            raise RuntimeError("codec is closed")

    def _count_op(self, op: str, n: int = 1) -> None:
        """Mirror one facade operation into the obs registry (no-op cheap)."""
        _obs.get_registry().counter("repro_codec_ops_total", op=op).inc(n)

    def session_config(self) -> SessionConfig:
        """The link policy this codec implies (for :func:`connect`/:func:`serve`).

        Engine, pool sizing and packet policy all come from the codec, so
        a server and client built from equal codecs always shake hands.
        """
        return SessionConfig(algorithm=self.algorithm,
                             rekey_interval=self.rekey_interval,
                             max_payload=self.max_payload,
                             engine=self.engine_name,
                             parallel_workers=self.workers,
                             parallel_threshold=self.parallel_threshold)

    def link(self, role: str, session_id: bytes | None = None, *,
             metrics=None, datagram: bool = False,
             kex=None, ticket=None) -> LinkProtocol:
        """A sans-IO :class:`~repro.link.LinkProtocol` bound to this codec.

        The machine speaks this codec's whole link policy (key,
        algorithm, engine, rekey interval, payload ceiling) and performs
        no I/O: feed received bytes with ``receive_data``, dispatch on
        the returned events, drain ``data_to_send`` into any transport.
        ``role`` is ``"initiator"`` or ``"responder"``; ``datagram=True``
        selects the one-frame-per-datagram mode (see docs/net.md).  The
        protocol captures the policy at call time and runs standalone —
        closing the codec later does not invalidate it.

        ``kex`` selects the handshake family: ``None`` / ``"psk"`` for
        the classic pre-shared hello, ``"ecdh"`` for the authenticated
        hello-v2 exchange (authentication secret derived from this
        codec's key; responders also seal resumption tickets), or a
        full :class:`repro.kex.KexConfig`.  ``ticket`` is a client's
        :class:`repro.kex.ResumptionTicket` from an earlier session.
        """
        self._check_open()
        side = "serve" if role == "responder" else "connect"
        return LinkProtocol(self.key, role, config=self.session_config(),
                            session_id=session_id, metrics=metrics,
                            datagram=datagram,
                            kex=_resolve_kex(self, side, kex, ticket))

    # -- single packets ---------------------------------------------------

    def encrypt(self, payload: bytes, nonce: int = DEFAULT_BASE_NONCE) -> bytes:
        """Encrypt one payload into one self-describing packet.

        Byte-identical to ``stream.encrypt_packet(payload, key, nonce,
        algorithm, engine)``; the nonce discipline (never reuse under
        one key) stays the caller's job exactly as there — or use
        :func:`connect`/:func:`serve`, which automate it per session.
        """
        self._check_open()
        self._count_op("encrypt")
        return encrypt_packet(payload, self.key, nonce=nonce,
                              algorithm=self.algorithm, engine=self.engine)

    def decrypt(self, packet: bytes) -> bytes:
        """Decrypt one packet (any engine's output; CRC-checked)."""
        self._check_open()
        self._count_op("decrypt")
        return decrypt_packet(packet, self.key, engine=self.engine)

    # -- ordered batches --------------------------------------------------

    def encrypt_packets(self, payloads: Sequence[bytes],
                        nonces: Sequence[int]) -> list[bytes]:
        """Encrypt many payloads, order-preserving, pool-accelerated.

        Payload ``i`` is encrypted under ``nonces[i]``.  With a bound
        pool and more than one payload the packets fan out across
        workers; the result is byte-identical either way.  Raises
        :class:`ValueError` on a payload/nonce length mismatch.
        """
        self._check_open()
        self._count_op("encrypt_packets")
        if len(payloads) != len(nonces):
            raise ValueError(
                f"{len(payloads)} payloads but {len(nonces)} nonces"
            )
        jobs = [(payload, self.key, nonce, self.algorithm)
                for payload, nonce in zip(payloads, nonces)]
        return self._parallel._run(encrypt_packet, jobs)

    def decrypt_packets(self, packets: Sequence[bytes]) -> list[bytes]:
        """Decrypt many packets, order-preserving, pool-accelerated."""
        self._check_open()
        self._count_op("decrypt_packets")
        return self._parallel._run(decrypt_packet,
                                   [(packet, self.key) for packet in packets])

    # -- chunked blobs ----------------------------------------------------

    def seal_blob(self, payload: bytes,
                  base_nonce: int = DEFAULT_BASE_NONCE) -> bytes:
        """Encrypt a payload of any size into a chunked multi-packet blob.

        The :mod:`repro.parallel` framing: back-to-back standard packets
        of at most ``chunk_size`` plaintext bytes each, deterministic
        chunk nonces walking up from ``base_nonce``.  Payloads of at
        most one chunk produce exactly ``encrypt(payload, base_nonce)``,
        and the bytes never depend on the pool.
        """
        self._check_open()
        self._count_op("seal_blob")
        return self._parallel.encrypt_blob(payload, base_nonce)

    def open_blob(self, blob: bytes) -> bytes:
        """Decrypt a blob (or a plain single packet) back to its payload."""
        self._check_open()
        self._count_op("open_blob")
        return self._parallel.decrypt_blob(blob)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release the owned pool, if one was started; idempotent.

        Shared pools (``pool=`` at construction) are left running — the
        caller who built them owns them.
        """
        self._closed = True
        self._parallel.close()

    def __enter__(self) -> "Codec":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<Codec engine={self.engine_name!r} "
                f"algorithm={self.algorithm} width={self.params.width} "
                f"workers={self.workers}>")


def open_codec(key, **options) -> Codec:
    """Build a :class:`Codec`; the facade's front door.

    ``key`` is a :class:`~repro.core.key.Key` or its ``keygen`` hex
    form; ``options`` are the :class:`Codec` keyword arguments.  Named
    ``open_*`` deliberately: the codec may own OS resources (the worker
    pool), so treat it like a file —

    ::

        with open_codec("03:25:71:46", engine="fast") as codec:
            blob = codec.seal_blob(payload)
    """
    return Codec(key, **options)


def _codec_for_link(codec) -> Codec:
    """Normalise :func:`connect`/:func:`serve` input to a bound codec."""
    return codec if isinstance(codec, Codec) else Codec(codec)


#: Transport selectors accepted by :func:`connect` / :func:`serve`.
_TRANSPORTS = ("tcp", "udp", "sync", "memory")


def _check_transport(transport: str) -> None:
    """Reject unknown transport names with one actionable message."""
    if transport not in _TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}: expected one of "
            f"{', '.join(repr(name) for name in _TRANSPORTS)}"
        )


def _resolve_kex(bound, side: str, kex, ticket=None) -> "KexConfig | None":
    """Normalise the public ``kex=`` spelling to a :class:`KexConfig`.

    ``None`` / ``"psk"`` select the classic pre-shared hello (returns
    ``None`` — the wire-pinned path).  ``"ecdh"`` builds a config from
    the bound codec's key: the authentication secret is derived from
    the key (so the handshake is as trustworthy as the key it
    bootstraps from, and adds forward secrecy on top), servers get a
    ticket vault sealed under a key-derived secret, clients may offer
    ``ticket``.  A full :class:`repro.kex.KexConfig` passes through
    (with ``ticket`` merged in, if given).
    """
    if kex is None or kex == "psk":
        if ticket is not None:
            raise ValueError("a resumption ticket requires kex='ecdh'")
        return None
    if isinstance(kex, KexConfig):
        if ticket is not None:
            from dataclasses import replace as _replace

            kex = _replace(kex, ticket=ticket)
        return kex
    if kex != "ecdh":
        raise ValueError(
            f"unknown kex selector {kex!r}: expected 'ecdh', 'psk', "
            f"or a repro.kex.KexConfig"
        )
    auth = kex_auth_secret(bound.key)
    common = dict(auth_secret=auth, params=bound.key.params,
                  n_pairs=len(bound.key))
    if side == "serve":
        vault = TicketVault(hkdf_expand(auth, b"mhhea-kex ticket vault", 32))
        return KexConfig(modes=("ecdh", "resume", "psk"), tickets=vault,
                         **common)
    return KexConfig(modes=("ecdh", "resume"), ticket=ticket, **common)


def connect(codec, host: str = "127.0.0.1", port: int = 0, *,
            transport: str = "tcp",
            session_id: bytes | None = None,
            server=None,
            kex=None, ticket=None):
    """A secure-link client speaking this codec's policy (initiator side).

    ``codec`` is a :class:`Codec` (or a key / hex key, from which a
    default codec is built; engine and pool sizing are codec options).
    ``transport`` picks the adapter, all of which drive the same
    :class:`~repro.link.LinkProtocol` and are therefore wire-compatible
    with every ``serve`` transport but ``"memory"``:

    * ``"tcp"`` (default) — the asyncio
      :class:`~repro.net.client.SecureLinkClient`, returned
      *unconnected*; drive it as an async context manager::

          async with connect(codec, port=server.port) as client:
              reply = await client.request(b"payload")

    * ``"sync"`` — a blocking-socket
      :class:`~repro.link.SyncLinkClient` (plain ``with``, no event
      loop);
    * ``"udp"`` — a best-effort datagram
      :class:`~repro.link.UdpLinkClient`;
    * ``"memory"`` — an in-process connection to the
      :class:`~repro.link.MemoryLinkServer` passed as ``server=``
      (``host``/``port`` are meaningless and ignored).

    The non-asyncio transports run cipher work inline and reject codecs
    built with ``workers > 0``.

    ``kex`` / ``ticket`` select the handshake family exactly as on
    :meth:`Codec.link`: ``kex="ecdh"`` runs the authenticated hello-v2
    exchange (deriving the session's root key), ``ticket`` offers a
    :class:`repro.kex.ResumptionTicket` from an earlier connection.
    The datagram ``"udp"`` transport cannot carry the multi-round
    exchange (and has nowhere to store tickets) and rejects ``kex``.
    """
    _check_transport(transport)
    bound = _codec_for_link(codec)
    kex_config = _resolve_kex(bound, "connect", kex, ticket)
    if kex_config is not None and transport == "udp":
        raise ValueError(
            "kex='ecdh' requires a stream transport (tcp, sync or "
            "memory); the udp transport is datagram-only and has no "
            "ticket support"
        )
    if transport == "memory":
        if server is None:
            raise ValueError(
                "connect(transport='memory') needs the memory server: "
                "pass serve(codec, transport='memory') as server="
            )
        # The caller's codec is the *client's* side of the handshake:
        # a key or policy mismatch with the server fails here exactly
        # like it would over a socket, never silently.
        return server.connect(session_id=session_id, root=bound.key,
                              config=bound.session_config(),
                              kex=kex_config)
    if server is not None:
        raise ValueError(
            f"the server= argument only applies to transport='memory', "
            f"not {transport!r}"
        )
    if transport == "sync":
        from repro.link.sync import SyncLinkClient

        return SyncLinkClient(bound.key, host=host, port=port,
                              config=bound.session_config(),
                              session_id=session_id, kex=kex_config)
    if transport == "udp":
        from repro.link.udp import UdpLinkClient

        return UdpLinkClient(bound.key, host=host, port=port,
                             config=bound.session_config(),
                             session_id=session_id)
    return SecureLinkClient(bound.key, host=host, port=port,
                            config=bound.session_config(),
                            session_id=session_id, kex=kex_config)


def serve(codec, host: str = "127.0.0.1", port: int = 0, *,
          transport: str = "tcp",
          handler=None, queue_depth: int = DEFAULT_QUEUE_DEPTH,
          metrics_port: int | None = None,
          kex=None):
    """A secure-link server speaking this codec's policy (responder side).

    Accepts the same ``codec`` spellings as :func:`connect`, and the
    same ``transport`` names:

    * ``"tcp"`` (default) — the asyncio
      :class:`~repro.net.server.SecureLinkServer`, returned unstarted;
      drive it as an async context manager (``port=0`` binds a free
      port, read ``server.port``)::

          async with serve(codec, port=0) as server:
              ...

    * ``"sync"`` — a threaded blocking-socket
      :class:`~repro.link.SyncLinkServer` (plain ``with``);
    * ``"udp"`` — a datagram :class:`~repro.link.UdpLinkServer`, one
      replay-windowed session per peer address;
    * ``"memory"`` — a socket-free
      :class:`~repro.link.MemoryLinkServer` whose clients come from
      ``connect(codec, transport="memory", server=...)``.

    ``handler`` receives each decrypted payload and returns the reply;
    ``None`` selects the echo handler the round-trip benchmarks
    measure.  Async handlers (and ``queue_depth``) apply to the asyncio
    transport only; the others take sync callables and run cipher work
    inline (codecs with ``workers > 0`` are rejected).

    ``metrics_port`` (asyncio transport only) starts a
    :class:`repro.obs.MetricsEndpoint` beside the listener serving
    ``GET /metrics`` (Prometheus text) and ``GET /healthz``; ``0``
    binds an ephemeral port.
    """
    _check_transport(transport)
    if metrics_port is not None and transport != "tcp":
        raise ValueError(
            f"metrics_port requires transport='tcp', got {transport!r}"
        )
    bound = _codec_for_link(codec)
    kex_config = _resolve_kex(bound, "serve", kex)
    if kex_config is not None and transport == "udp":
        raise ValueError(
            "kex='ecdh' requires a stream transport (tcp, sync or "
            "memory); the udp transport is datagram-only and has no "
            "ticket support"
        )
    if transport == "memory":
        from repro.link.memory import MemoryLinkServer

        return MemoryLinkServer(bound.key, config=bound.session_config(),
                                handler=handler, kex=kex_config)
    if transport == "sync":
        from repro.link.sync import SyncLinkServer

        return SyncLinkServer(bound.key, host=host, port=port,
                              config=bound.session_config(),
                              handler=handler, kex=kex_config)
    if transport == "udp":
        from repro.link.udp import UdpLinkServer

        return UdpLinkServer(bound.key, host=host, port=port,
                             config=bound.session_config(),
                             handler=handler)
    extra = {} if handler is None else {"handler": handler}
    return SecureLinkServer(bound.key, host=host, port=port,
                            config=bound.session_config(),
                            queue_depth=queue_depth,
                            metrics_port=metrics_port, kex=kex_config,
                            **extra)


def relay_serve(keyring, host: str = "127.0.0.1", port: int = 0, *,
                config=None, metrics_port: int | None = None,
                poll_interval_s: float = 1.0):
    """A multi-tenant relay/hub terminating many secure links.

    Unlike :func:`serve` — one pre-shared codec, one handler — the
    relay authenticates every connection to a *tenant* through a
    :class:`~repro.kex.TenantKeyring` and routes decrypted payloads
    between links that joined the same ``(tenant, channel)`` group,
    under the admission/shedding policy of a
    :class:`~repro.relay.RelayConfig`.  ``keyring`` is the fleet
    :class:`~repro.kex.TenantKeyring` or the raw fleet-root bytes (>=16
    bytes, from which one is built).

    Returns an unstarted :class:`~repro.relay.RelayServer`; drive it as
    an async context manager exactly like :func:`serve`'s default
    transport::

        async with relay_serve(keyring, port=0) as relay:
            ...  # relay.port is bound, relay.core.stats() is live

    ``metrics_port`` starts the Prometheus/healthz endpoint beside the
    listener; ``poll_interval_s`` paces the deadline sweep (handshake
    and idle timeouts).
    """
    from repro.kex.keyring import TenantKeyring
    from repro.relay.server import RelayServer

    if isinstance(keyring, (bytes, bytearray)):
        keyring = TenantKeyring(bytes(keyring))
    return RelayServer(keyring, host=host, port=port, config=config,
                       metrics_port=metrics_port,
                       poll_interval_s=poll_interval_s)

"""Sharded encryption of large payloads: chunking, fan-out, reassembly.

The packet codec (:mod:`repro.core.stream`) encrypts one payload into
one packet with one nonce — inherently serial, because the hiding
vectors of a packet are one continuous LFSR stream.  This module scales
*around* that constraint instead of breaking it: a large payload is
split into fixed-size chunks, each chunk becomes an ordinary
self-describing packet under its own nonce, the chunks are encrypted on
a process pool, and the packets are concatenated **in chunk order**.
DESIGN.md section 9 specifies the framing and the byte-identity
argument; the short version:

* **Chunk framing** — the blob is nothing but back-to-back standard
  packets, so :func:`repro.core.stream.split_packets` recovers the chunk
  boundaries with no extra container format, and a single-chunk blob is
  *exactly* ``encrypt_packet(payload, key, nonce=base_nonce)``.
* **Deterministic nonces** — chunk ``i`` uses the ``i``-th valid nonce
  at or after ``base_nonce`` (:func:`chunk_nonces`), a pure function of
  ``(base_nonce, i, width)``.  No worker ever chooses a nonce.
* **Ordered reassembly** — results are placed by chunk index, never by
  completion order, so the blob is byte-identical no matter how many
  workers ran or how they interleaved (including zero workers: the
  inline path runs the very same per-chunk calls in a loop).

Byte-identity across worker counts *and* across engines is pinned by
the differential suite in ``tests/parallel/test_pipeline.py``.
"""

from __future__ import annotations

from repro.core import engines as _engines
from repro.core.errors import CipherFormatError, UnknownEngineError
from repro.core.key import Key
from repro.core.stream import (
    ALGORITHM_HHEA,
    ALGORITHM_MHHEA,
    NONCE_MAX,
    decrypt_packet,
    encrypt_packet,
    split_packets,
)
from repro.obs import core as _obs
from repro.parallel.pool import EncryptionPool
from repro.util.bits import mask

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_BASE_NONCE",
    "chunk_nonces",
    "chunk_payload",
    "ParallelCodec",
]

#: Plaintext bytes per chunk (and per packet) in a sharded blob.  64 KiB
#: keeps per-chunk schedule/compile overhead negligible while giving a
#: 1 MiB payload 16 chunks to spread across workers.
DEFAULT_CHUNK_SIZE = 1 << 16

#: Default first-chunk nonce, matching ``encrypt_packet``'s default.
DEFAULT_BASE_NONCE = 0xACE1


def chunk_nonces(base_nonce: int, count: int, width: int) -> list[int]:
    """The ``count`` packet nonces of a sharded blob, starting at ``base_nonce``.

    Chunk 0 uses ``base_nonce`` itself — which must therefore be a valid
    packet nonce, exactly as for ``encrypt_packet`` (an invalid base is
    *rejected*, never silently replaced).  Later chunks walk upward,
    skipping every value whose low ``width`` bits are zero (those would
    seed the hiding-vector LFSR with its frozen all-zero state, see
    :func:`repro.core.stream.validate_nonce`).  The result is strictly
    increasing, so chunk nonces never collide within a blob; the caller
    still owns the cross-blob discipline of DESIGN.md section 4 — leave
    ``count`` nonces of headroom before the next blob under the same
    key.  Raises :class:`CipherFormatError` if ``base_nonce`` is not a
    valid nonce or the walk would leave the 32-bit field.
    """
    low = mask(width)
    if not 0 < base_nonce <= NONCE_MAX:
        raise CipherFormatError(
            f"base nonce {base_nonce:#x} outside the 32-bit header field"
        )
    if base_nonce & low == 0:
        raise CipherFormatError(
            f"base nonce {base_nonce:#x} reduces to zero modulo 2**{width} "
            f"and would freeze the LFSR (same rule as validate_nonce)"
        )
    nonces: list[int] = []
    nonce = base_nonce
    for _ in range(count):
        while nonce & low == 0:
            nonce += 1
        if nonce > NONCE_MAX:
            raise CipherFormatError(
                f"nonce space exhausted: {count} chunks starting at "
                f"{base_nonce:#x} overrun the 32-bit header field"
            )
        nonces.append(nonce)
        nonce += 1
    return nonces


def chunk_payload(payload: bytes, chunk_size: int) -> list[bytes]:
    """Split ``payload`` into ``chunk_size``-byte chunks (last one short).

    An empty payload yields one empty chunk, so every blob contains at
    least one packet and decryption can distinguish "empty payload"
    from "no blob at all".
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if not payload:
        return [b""]
    return [payload[i:i + chunk_size]
            for i in range(0, len(payload), chunk_size)]


class ParallelCodec:
    """Encrypt/decrypt large payloads as sharded multi-packet blobs.

    One key, one algorithm, one engine, many chunks — and the one place
    that decides whether cipher work runs inline or on a pool.  With
    ``workers=0`` everything runs inline in the calling process; with
    ``workers=N`` an :class:`~repro.parallel.pool.EncryptionPool` is
    started lazily on the first multi-chunk blob (or, through
    :meth:`repro.api.Codec.encrypt_packets`, multi-packet batch) and the
    work fans out across it — sub-chunk payloads never pay the
    process-spawn cost.  Either way the wire bytes are identical —
    worker count is a purely local throughput knob, exactly like the
    ``engine`` selector.

    Usage::

        with ParallelCodec(key, workers=4) as codec:
            blob = codec.encrypt_blob(payload)
            assert codec.decrypt_blob(blob) == payload

    A pool can also be shared: pass ``pool=`` an existing
    :class:`EncryptionPool` and the codec will use (but never close) it.
    """

    def __init__(self, key: Key, workers: int = 0, *,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 algorithm: int | None = None,
                 engine: "str | _engines.Engine | None" = None,
                 pool: EncryptionPool | None = None):
        """Validate the policy; remember ``workers`` for lazy pool start.

        ``algorithm`` is a packet-format algorithm id
        (:data:`~repro.core.stream.ALGORITHM_MHHEA` by default) and
        ``engine`` the cipher implementation — a registered name, an
        :class:`~repro.core.engines.Engine` instance, or ``None`` for
        the registry default.  Raises :class:`ValueError` for a
        non-positive ``chunk_size`` or a negative ``workers`` count,
        :class:`~repro.core.errors.CipherFormatError` for an unknown
        algorithm id, and
        :class:`~repro.core.errors.UnknownEngineError` for an
        unregistered engine name — or, when ``workers > 0`` or ``pool=``
        is given, for an engine instance whose name is unregistered,
        since pool workers re-resolve the engine by name.
        """
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if algorithm is None:
            algorithm = ALGORITHM_MHHEA
        if algorithm not in (ALGORITHM_HHEA, ALGORITHM_MHHEA):
            raise CipherFormatError(f"unknown algorithm id {algorithm}")
        backend = _engines.get_engine(engine)
        if ((workers > 0 or pool is not None)
                and backend.name not in _engines.registered_engines()):
            raise UnknownEngineError(
                f"engine {backend.name!r} is not registered; pooled "
                f"codecs re-resolve the engine by name inside worker "
                f"processes, so register_engine({backend.name!r}, ...) "
                f"first (or stay inline with workers=0)"
            )
        self.key = key
        self.chunk_size = chunk_size
        self.algorithm = algorithm
        self.engine = backend.name
        self._backend = backend
        self._workers = workers
        self._own_pool = False
        self._pool: EncryptionPool | None = pool

    @property
    def pool(self) -> EncryptionPool | None:
        """The pool chunks fan out to (``None`` means fully inline).

        Owned pools start *lazily* on the first multi-chunk blob, so a
        ``workers=N`` codec that only ever sees sub-chunk payloads never
        pays the process-spawn cost; until then this reads ``None``.
        """
        return self._pool

    def _run(self, fn, jobs: list[tuple]) -> list:
        """``fn(*job, engine)`` for every job, results in job order.

        A single job, or any job list on a codec with neither a pool nor
        ``workers``, runs inline on the resolved engine object (so an
        unregistered engine instance stays legal inline).  Otherwise the
        jobs fan out across the pool — the shared one, or an owned one
        started here on first use — carrying the engine's registry name,
        which each worker re-resolves.
        """
        if len(jobs) < 2 or (self._pool is None and not self._workers):
            return [fn(*job, self._backend) for job in jobs]
        if self._pool is None:
            self._pool = EncryptionPool(self._workers)
            self._own_pool = True
        return self._pool.run_jobs(fn, [(*job, self.engine) for job in jobs])

    def encrypt_blob(self, payload: bytes,
                     base_nonce: int = DEFAULT_BASE_NONCE) -> bytes:
        """Encrypt ``payload`` into a sharded blob of chunk packets.

        The result is deterministic in ``(payload, key, algorithm,
        base_nonce, chunk_size)`` — worker count and engine never change
        a byte.  For payloads of at most one chunk it equals
        ``encrypt_packet(payload, key, nonce=base_nonce)`` exactly.
        """
        chunks = chunk_payload(payload, self.chunk_size)
        nonces = chunk_nonces(base_nonce, len(chunks),
                              self.key.params.width)
        packets = self._run(encrypt_packet,
                            [(chunk, self.key, nonce, self.algorithm)
                             for chunk, nonce in zip(chunks, nonces)])
        _obs.get_registry().counter("repro_blob_chunks_total",
                                    op="encrypt").inc(len(chunks))
        return b"".join(packets)

    def decrypt_blob(self, blob: bytes) -> bytes:
        """Decrypt a sharded blob back to the original payload.

        Accepts any back-to-back packet stream under this codec's key —
        including a plain single ``encrypt_packet`` output — and
        reassembles chunks in stream order.  Raises
        :class:`CipherFormatError` for an empty blob, a stream that ends
        mid-packet, or any per-packet structural/CRC damage.
        """
        packets = split_packets(blob)
        if not packets:
            raise CipherFormatError("empty blob: no packets to decrypt")
        chunks = self._run(decrypt_packet,
                           [(packet, self.key) for packet in packets])
        _obs.get_registry().counter("repro_blob_chunks_total",
                                    op="decrypt").inc(len(packets))
        return b"".join(chunks)

    def close(self) -> None:
        """Stop the pool if this codec started it; idempotent."""
        if self._own_pool and self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ParallelCodec":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

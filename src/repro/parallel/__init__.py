"""``repro.parallel`` — the sharded multi-worker encryption pipeline.

The fast engine made one core ~7x faster; this package scales the hot
path across cores while keeping the wire format bit-for-bit stable:

* :mod:`repro.parallel.pool` — :class:`EncryptionPool`, a resilient
  process pool with worker-death recovery, whose jobs are plain
  :func:`~repro.core.stream.encrypt_packet` /
  :func:`~repro.core.stream.decrypt_packet` calls;
* :mod:`repro.parallel.pipeline` — :class:`ParallelCodec`, chunked
  encryption of large payloads into back-to-back packet blobs with
  deterministic nonces and ordered reassembly, and the one place that
  decides whether blob and packet-batch work runs inline or on a pool.

Layering: this package depends only on :mod:`repro.core`; the secure
link (:mod:`repro.net`) sits above it and offloads per-packet cipher
work through the same pool (``SessionConfig(parallel_workers=...,
parallel_threshold=...)``).  Chunk framing and the byte-identity
argument are specified in DESIGN.md section 9.
"""

from repro.parallel.pipeline import (
    DEFAULT_BASE_NONCE,
    DEFAULT_CHUNK_SIZE,
    ParallelCodec,
    chunk_nonces,
    chunk_payload,
)
from repro.parallel.pool import EncryptionPool

__all__ = [
    "DEFAULT_BASE_NONCE",
    "DEFAULT_CHUNK_SIZE",
    "EncryptionPool",
    "ParallelCodec",
    "chunk_nonces",
    "chunk_payload",
]

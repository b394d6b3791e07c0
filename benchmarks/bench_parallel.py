"""Sharded pipeline throughput — the point of ``repro.parallel``.

PR 2 made one core ~7x faster; this bench measures what sharding buys
on top.  Two things are asserted unconditionally: the parallel blob is
byte-identical to the inline blob (the DESIGN.md section 9 invariant —
a speedup that changes the wire bytes is a bug, not a feature), and the
pipeline round-trips.  The worker scaling curve is recorded on every
host (``parallel_scaling_curve.txt``, no speed asserted), because a
small host's curve is still a fact worth keeping.  The *scaling* gate —
>= 2.5x over the single-worker fast path with 4 workers on a 1 MiB
payload — only means something when the host actually has cores to
scale across, so it is skipped below :data:`MIN_CPUS`.
"""

import contextlib
import os

import pytest

from repro.parallel import ParallelCodec

#: The acceptance workload: 1 MiB sharded into 64 KiB chunks.
PAYLOAD = bytes(i % 256 for i in range(1 << 20))
CHUNK = 1 << 16

#: The scaling curve's workload, sized to run on every host in seconds:
#: 256 KiB in 32 KiB chunks, so 2 workers still get 4 chunks each.
CURVE_PAYLOAD = PAYLOAD[:1 << 18]
CURVE_CHUNK = 1 << 15

#: Required advantage of 4 workers over the inline fast path.
MIN_SPEEDUP = 2.5

#: Cores needed before the scaling gate is meaningful.
MIN_CPUS = 4

_NONCE = 0xACE1


def _best_of(fn, repeats: int) -> float:
    import time

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_parallel_blob_byte_identity(bench_key, emit):
    """Wire output must not depend on worker count — ever."""
    inline = ParallelCodec(bench_key, chunk_size=CHUNK)
    expected = inline.encrypt_blob(PAYLOAD, _NONCE)
    with ParallelCodec(bench_key, workers=2, chunk_size=CHUNK) as codec:
        blob = codec.encrypt_blob(PAYLOAD, _NONCE)
        assert blob == expected
        assert codec.decrypt_blob(blob) == PAYLOAD
    emit(
        "parallel_identity",
        f"1 MiB payload, {len(expected)} wire bytes: 2-worker blob is "
        f"byte-identical to inline and round-trips",
    )


def test_parallel_scaling_curve(bench_key, emit):
    """Record inline vs 1, 2 (and, with 4+ CPUs, 4) workers; assert bytes only.

    Every worker count must emit the inline blob and round-trip it; the
    MB/s and speedups are emitted, never asserted — below
    :data:`MIN_CPUS` a pool cannot show scaling, and the gate below
    owns the speed claim where it can.  Each round times every worker
    count in turn (best of the rounds), so a slow phase of a shared host
    lands on all of them rather than on one.
    """
    workers_list = [0, 1, 2] + ([4] if os.cpu_count() >= MIN_CPUS else [])
    enc = {workers: [] for workers in workers_list}
    dec = {workers: [] for workers in workers_list}
    with contextlib.ExitStack() as stack:
        codecs = {workers: stack.enter_context(ParallelCodec(
                      bench_key, workers, chunk_size=CURVE_CHUNK))
                  for workers in workers_list}
        expected = codecs[0].encrypt_blob(CURVE_PAYLOAD, _NONCE)
        for codec in codecs.values():
            blob = codec.encrypt_blob(CURVE_PAYLOAD, _NONCE)  # warm the pool
            assert blob == expected
            assert codec.decrypt_blob(blob) == CURVE_PAYLOAD
        for _ in range(2):
            for workers, codec in codecs.items():
                enc[workers].append(_best_of(
                    lambda: codec.encrypt_blob(CURVE_PAYLOAD, _NONCE), 1))
                dec[workers].append(_best_of(
                    lambda: codec.decrypt_blob(expected), 1))
    mb = len(CURVE_PAYLOAD) / 1e6
    t_enc_inline, t_dec_inline = min(enc[0]), min(dec[0])
    emit(
        "parallel_scaling_curve",
        "\n".join([
            f"cpu_count: {os.cpu_count()}",
            f"{len(CURVE_PAYLOAD) >> 10} KiB payload, "
            f"{CURVE_CHUNK >> 10} KiB chunks, wire bytes identical for "
            f"every worker count; speedups against inline",
        ] + [
            f"{'inline' if workers == 0 else f'{workers} worker(s)':11s}: "
            f"encrypt {mb / min(enc[workers]):6.3f} MB/s "
            f"({t_enc_inline / min(enc[workers]):.2f}x), "
            f"decrypt {mb / min(dec[workers]):6.3f} MB/s "
            f"({t_dec_inline / min(dec[workers]):.2f}x)"
            for workers in workers_list
        ]),
    )


@pytest.mark.skipif(os.cpu_count() < MIN_CPUS,
                    reason=f"scaling gate needs >= {MIN_CPUS} CPUs "
                           f"(host has {os.cpu_count()})")
def test_parallel_scaling_gate(bench_key, emit):
    """4 workers must clear 2.5x over the inline fast path on 1 MiB."""
    inline = ParallelCodec(bench_key, chunk_size=CHUNK)
    inline.encrypt_blob(PAYLOAD, _NONCE)  # warm schedule + allocator
    t_inline = _best_of(lambda: inline.encrypt_blob(PAYLOAD, _NONCE), 3)
    with ParallelCodec(bench_key, workers=4, chunk_size=CHUNK) as codec:
        codec.encrypt_blob(PAYLOAD, _NONCE)  # warm worker pool
        t_parallel = _best_of(lambda: codec.encrypt_blob(PAYLOAD, _NONCE), 3)
    speedup = t_inline / t_parallel
    mb = len(PAYLOAD) / 1e6
    emit(
        "parallel_scaling",
        "\n".join([
            f"1 MiB payload, {CHUNK >> 10} KiB chunks, "
            f"{os.cpu_count()} CPUs",
            f"inline fast:  {mb / t_inline:8.2f} MB/s",
            f"4 workers:    {mb / t_parallel:8.2f} MB/s ({speedup:.2f}x)",
        ]),
    )
    assert speedup >= MIN_SPEEDUP

"""Worker-death recovery: a dying process never loses a batch.

A killed worker poisons the whole ``ProcessPoolExecutor`` (every
in-flight future raises ``BrokenProcessPool``), so "graceful recovery"
means :class:`~repro.parallel.pool.EncryptionPool` must rebuild the pool
and re-run exactly the lost jobs, and — if the rebuilt pool dies too —
finish the batch inline.  These tests kill workers for real with
``os._exit`` and assert the batch output is still byte-identical to the
inline path.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.errors import CipherFormatError
from repro.core.stream import ALGORITHM_MHHEA, decrypt_packet, encrypt_packet
from repro.parallel import EncryptionPool, ParallelCodec

pytestmark = pytest.mark.filterwarnings(
    # The killed worker can leave its SimpleQueue helper thread behind.
    "ignore::pytest.PytestUnhandledThreadExceptionWarning",
)


def _crash_once(marker_path: str) -> str:
    """Kill the hosting process the first time, succeed on the retry."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w"):
            pass
        os._exit(1)
    return "survived"


def _crash_unless_parent(parent_pid: int) -> str:
    """Kill every worker; only the parent (inline fallback) survives."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return "inline"


def _kill_pool(pool: EncryptionPool) -> None:
    """Deterministically break the live pool by crashing a worker."""
    future = pool.executor.submit(os._exit, 1)
    with pytest.raises(Exception):
        future.result()


class TestPoolRecovery:
    def test_rebuilds_after_mid_batch_crash(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        with EncryptionPool(1) as pool:
            results = pool.run_jobs(_crash_once, [(marker,)])
            assert results == ["survived"]
            assert pool.restarts == 1

    def test_broken_pool_detected_at_submit_time(self, key16, tmp_path):
        payload = bytes(64)
        with EncryptionPool(1) as pool:
            _kill_pool(pool)
            # The executor is already poisoned before this batch starts.
            jobs = [(payload, key16, nonce, ALGORITHM_MHHEA, "fast")
                    for nonce in (0x1111, 0x2222)]
            packets = pool.run_jobs(encrypt_packet, jobs)
            assert pool.restarts == 1
            assert packets == [
                encrypt_packet(payload, key16, nonce=0x1111, engine="fast"),
                encrypt_packet(payload, key16, nonce=0x2222, engine="fast"),
            ]

    def test_inline_fallback_when_restarts_exhausted(self):
        parent = os.getpid()
        with EncryptionPool(1) as pool:
            results = pool.run_jobs(_crash_unless_parent, [(parent,)])
            assert results == ["inline"]
            assert pool.restarts == 1  # budget spent, then inline

    def test_restart_counter_starts_at_zero(self):
        with EncryptionPool(1) as pool:
            assert pool.restarts == 0
            assert pool.workers == 1

    def test_closed_pool_refuses_work(self):
        pool = EncryptionPool(1)
        pool.close()
        with pytest.raises(RuntimeError):
            _ = pool.executor
        pool.close()  # idempotent

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            EncryptionPool(0)


class TestCodecRecovery:
    def test_blob_correct_after_worker_death(self, key16):
        payload = bytes(i % 251 for i in range(5000))
        inline = ParallelCodec(key16, chunk_size=1024)
        expected = inline.encrypt_blob(payload)
        with ParallelCodec(key16, workers=1, chunk_size=1024) as codec:
            assert codec.pool is None  # lazy: no pool before first blob
            assert codec.encrypt_blob(payload) == expected
            _kill_pool(codec.pool)
            assert codec.encrypt_blob(payload) == expected
            assert codec.pool.restarts == 1
            # The rebuilt pool keeps serving subsequent batches.
            assert codec.decrypt_blob(expected) == payload
            assert codec.pool.restarts == 1


class TestAsyncRecovery:
    def test_run_async_rebuilds_broken_pool(self, key16):
        async def scenario() -> bytes:
            with EncryptionPool(1) as pool:
                _kill_pool(pool)
                packet = await pool.run_async(
                    encrypt_packet, b"async payload", key16, 0x1234,
                    ALGORITHM_MHHEA, "fast")
                assert pool.restarts >= 1
                return packet

        packet = asyncio.run(scenario())
        assert packet == encrypt_packet(b"async payload", key16,
                                        nonce=0x1234, engine="fast")

    def test_run_async_job_error_is_not_a_crash(self, key16):
        damaged = encrypt_packet(b"async payload", key16, nonce=0x1234)[:-1]

        async def scenario() -> int:
            with EncryptionPool(1) as pool:
                with pytest.raises(CipherFormatError):
                    await pool.run_async(decrypt_packet, damaged, key16,
                                         "fast")
                return pool.restarts

        assert asyncio.run(scenario()) == 0

"""Process-pool plumbing for the sharded encryption pipeline.

The fast engine (:mod:`repro.core.fastpath`) saturates one core; the
paper's north star — line-rate packet encryption for "heavy traffic"
links — needs all of them.  This module owns the *worker* side of that
scale-out:

* **Long-lived workers** — one :class:`concurrent.futures.ProcessPoolExecutor`
  whose processes survive across batches, so interpreter start-up is
  paid once per worker, not once per chunk.
* **Worker-death recovery** — a killed worker poisons a
  ``ProcessPoolExecutor`` (every in-flight future raises
  :class:`~concurrent.futures.process.BrokenProcessPool`).
  :meth:`EncryptionPool.run_jobs` rebuilds the pool and re-runs exactly
  the failed jobs; if the rebuilt pool dies too, the remaining jobs run
  inline so a batch always completes with correct output.

Jobs are plain calls of top-level (hence picklable) functions — in the
library, :func:`repro.core.stream.encrypt_packet` and
:func:`repro.core.stream.decrypt_packet` with the engine named by its
registry name — so they can be submitted under any start method.  They
are pure: byte-identical results regardless of which worker (or the
parent, on fallback) runs them, the property the differential suite in
``tests/parallel`` pins.  Workers hold no per-key state: each job's key
arrives pickled with it, and compiling its schedule costs far less than
the cipher work of one packet.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from repro.obs import core as _obs
from repro.obs.logs import log_event

__all__ = [
    "EncryptionPool",
]

#: Pool rebuilds attempted per batch before falling back to inline
#: execution in the parent process.
MAX_POOL_RESTARTS = 1


class EncryptionPool:
    """A resilient process pool dedicated to cipher work.

    Wraps :class:`~concurrent.futures.ProcessPoolExecutor` with the two
    things the encryption pipeline needs and the stdlib pool does not
    give: ordered fan-out with worker-death recovery (:meth:`run_jobs`),
    and an asyncio-friendly single-job path (:meth:`run_async`) for the
    secure link.

    One pool may be shared by any number of codecs and sessions; jobs
    carry their own key material.  Close it with :meth:`close` or use it
    as a context manager.
    """

    def __init__(self, workers: int):
        """Start a pool of ``workers`` processes.

        Raises :class:`ValueError` for ``workers < 1``.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        self._lock = threading.Lock()
        self._restarts = 0
        self._executor: ProcessPoolExecutor | None = None
        self._start_executor()

    def _start_executor(self) -> None:
        self._executor = ProcessPoolExecutor(max_workers=self._workers)

    @property
    def workers(self) -> int:
        """The worker-process count this pool was sized for."""
        return self._workers

    @property
    def restarts(self) -> int:
        """How many times the pool has been rebuilt after worker death."""
        return self._restarts

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The live executor (for ``loop.run_in_executor`` integration)."""
        if self._executor is None:
            raise RuntimeError("pool is closed")
        return self._executor

    def restart(self, broken: ProcessPoolExecutor | None = None) -> None:
        """Replace a (possibly broken) executor with a fresh pool.

        ``broken`` is the executor the caller observed failing: if
        another caller already replaced it (concurrent recoveries racing
        on the same worker death), the restart is a no-op — shutting
        down the *fresh* pool here would cancel the first caller's
        already-resubmitted retries.
        """
        with self._lock:
            if broken is not None and self._executor is not broken:
                return
            old, self._executor = self._executor, None
            if old is not None:
                old.shutdown(wait=False, cancel_futures=True)
            self._start_executor()
            self._restarts += 1
            _obs.get_registry().counter("repro_pool_restarts_total").inc()
            log_event("repro.parallel.pool", "pool.restart", level=30,
                      restarts=self._restarts)

    def run_jobs(self, fn, jobs: Sequence[tuple]) -> list:
        """Run ``fn(*job)`` for every job; ordered results, crash-proof.

        All jobs are submitted at once (the executor load-balances across
        workers) and results are returned in job order.  A job that
        raises an ordinary exception (say :class:`CipherFormatError`)
        propagates immediately — that is a caller bug, not an
        infrastructure failure.  Jobs lost to a dying worker are detected
        via :class:`BrokenProcessPool`, the pool is rebuilt (at most
        :data:`MAX_POOL_RESTARTS` times per call), and only the lost jobs
        are re-run; beyond the restart budget they run inline in the
        calling process, so the batch still completes byte-identically.
        """
        registry = _obs.get_registry()
        start = registry.clock() if registry.enabled else 0.0
        inline_jobs = 0
        results: list = [None] * len(jobs)
        pending = list(enumerate(jobs))
        restarts_left = MAX_POOL_RESTARTS
        while pending:
            lost: list[tuple[int, tuple]] = []
            executor = self.executor
            try:
                futures = {executor.submit(fn, *job): index
                           for index, job in pending}
            except BrokenProcessPool:
                # The pool was already poisoned (submit itself refuses):
                # every pending job needs the recovery path.  Any futures
                # created before the refusal are broken too and re-run —
                # jobs are pure, so recomputation is harmless.
                lost = pending
            else:
                wait(futures)
                for future, index in futures.items():
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        lost.append((index, jobs[index]))
            if not lost:
                break
            if restarts_left > 0:
                restarts_left -= 1
                self.restart(broken=executor)
                pending = lost
            else:
                for index, job in lost:
                    results[index] = fn(*job)
                inline_jobs = len(lost)
                break
        if registry.enabled and jobs:
            registry.counter("repro_pool_jobs_total",
                             mode="pool").inc(len(jobs) - inline_jobs)
            if inline_jobs:
                registry.counter("repro_pool_jobs_total",
                                 mode="inline").inc(inline_jobs)
            registry.histogram("repro_pool_batch_seconds").observe(
                registry.clock() - start)
        return results

    async def run_async(self, fn, /, *args):
        """Await one job from asyncio without blocking the event loop.

        Used by the secure link to keep the loop responsive while cipher
        work runs in a worker.  Applies the same recovery ladder as
        :meth:`run_jobs`: one pool rebuild, then inline execution.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        registry = _obs.get_registry()
        start = registry.clock() if registry.enabled else 0.0
        mode = "pool"
        executor = self.executor
        try:
            result = await loop.run_in_executor(executor, fn, *args)
        except BrokenProcessPool:
            self.restart(broken=executor)
            executor = self.executor
            try:
                result = await loop.run_in_executor(executor, fn, *args)
            except BrokenProcessPool:
                self.restart(broken=executor)
                # Last resort still keeps the loop responsive: the job
                # runs on the default thread pool, not the coroutine.
                mode = "inline"
                result = await loop.run_in_executor(None, fn, *args)
        if registry.enabled:
            registry.counter("repro_pool_jobs_total", mode=mode).inc()
            registry.histogram("repro_pool_job_seconds").observe(
                registry.clock() - start)
        return result

    def close(self, wait: bool = True) -> None:
        """Shut the workers down; idempotent.

        ``wait=False`` returns immediately (pending jobs cancelled, the
        worker processes reaped in the background) — what async callers
        need, since a blocking join would stall the event loop for as
        long as the slowest in-flight cipher job.
        """
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=wait, cancel_futures=True)
                self._executor = None

    def __enter__(self) -> "EncryptionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

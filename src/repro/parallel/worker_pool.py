"""Persistent process pool with adaptive chunking and array publication.

``ProcessPoolExecutor`` spawn + interpreter warm-up costs tens of
milliseconds per pool; the grid runners used to pay it once per fold
dispatch (nine-plus times per figure).  :class:`WorkerPool` is created
once per experiment run, keeps its workers alive across every
``fold_batch`` dispatch and grid cell, and owns the run's
:class:`~repro.parallel.shm.SharedArrayStore` so published fold
matrices live exactly as long as the workers that map them.

Guarantees (all inherited by :func:`repro.parallel.pool.parallel_map`,
which is now a transient one-call pool):

* **Order-preserving, bit-identical results** for any worker count —
  chunking and scheduling never touch task semantics, and all
  randomness flows through per-task seeds.
* **Graceful degradation** — ``n_workers=1``, un-picklable callables,
  and environments that forbid subprocesses all run inline; a broken
  pool is rebuilt once and, failing that, the batch reruns serially.
  Task callables must therefore be pure (safe to re-run), which every
  dispatch site in this library satisfies by construction.
* **Adaptive chunking** — per-item cost is measured worker-side on
  every dispatch and folded into an EWMA; subsequent dispatches size
  chunks to ``~TARGET_CHUNK_S`` of work, so tiny tasks amortize IPC
  while long tasks keep all workers load-balanced.

Telemetry (``pool.*`` metrics, ``pool.map`` spans) is documented in
``docs/OBSERVABILITY.md``; the ``pool.reuse`` counter tracks how many
dispatches were served by an already-warm pool.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

from .. import obs
from .._validation import check_positive_int
from .shm import SharedArrayStore

__all__ = ["WorkerPool", "default_workers"]

T = TypeVar("T")
R = TypeVar("R")

#: Target worker-side busy seconds per chunk for adaptive sizing.
#: Small enough that a nine-fold dispatch still load-balances across
#: workers, large enough that sub-millisecond tasks batch by the
#: hundreds.
_TARGET_CHUNK_S = 0.1

#: EWMA smoothing for the measured per-item cost (0 < alpha <= 1).
_COST_ALPHA = 0.5


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` env var or CPU count (capped at 16)."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, min(os.cpu_count() or 1, 16))


def _run_chunk_timed(
    fn: Callable[[T], R], chunk: Sequence[T]
) -> tuple[list[R], float]:
    """Worker-side chunk runner: results plus busy seconds.

    The busy time feeds both the utilization gauge and the adaptive
    chunk sizer; the timing wrapper cannot change results because the
    items are processed identically to a plain loop.
    """
    t0 = time.perf_counter()
    results = [fn(item) for item in chunk]
    return results, time.perf_counter() - t0


def _pickle_or_none(fn: Callable) -> bytes | None:
    """Serialized *fn*, or ``None`` when it cannot cross process
    boundaries (closures, lambdas, bound locals).

    Checked *before* any pool work is submitted so un-picklable
    callables take the serial path directly instead of failing
    mid-flight; the byte string is reused for the payload gauge so the
    callable is serialized exactly once.
    """
    try:
        return pickle.dumps(fn)
    except Exception:
        return None


class WorkerPool:
    """Reusable chunked process-pool map (one instance per run).

    Parameters
    ----------
    n_workers:
        Process count; ``None`` = :func:`default_workers`.  ``1`` makes
        every :meth:`map` run inline (no processes are ever spawned).

    Use as a context manager — :meth:`close` shuts the workers down and
    unlinks every shared-memory segment published through :attr:`shm`::

        with WorkerPool(cfg.n_workers) as pool:
            for cell in grid:
                results = pool.map(fit_fold, tasks)
    """

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = (
            default_workers()
            if n_workers is None
            else check_positive_int(n_workers, name="n_workers")
        )
        self._executor: ProcessPoolExecutor | None = None
        self._store: SharedArrayStore | None = None
        self._cost_ewma: float | None = None
        self._closed = False

    # -- array transport -----------------------------------------------------

    @property
    def shm(self) -> SharedArrayStore:
        """The pool's array store (shared memory, or inline when unusable).

        Created lazily; segments published through it are unlinked by
        :meth:`close`, tying their lifetime to the workers that map them.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._store is None:
            self._store = SharedArrayStore()
        return self._store

    # -- lifecycle -----------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.n_workers)
        else:
            obs.counter("pool.reuse")
        return self._executor

    def _teardown_executor(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def close(self) -> None:
        """Shut down workers and unlink shm segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._teardown_executor()
        if self._store is not None:
            self._store.close()
            self._store = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - defensive cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch ------------------------------------------------------------

    def _auto_chunk(self, n_items: int, workers: int) -> int:
        """Items per chunk from the measured per-item cost.

        With no cost estimate yet, falls back to the static
        ``ceil(n / (4 * workers))`` heuristic.  Chunks are clamped so a
        dispatch always produces at least one chunk per active worker.
        """
        cost = self._cost_ewma
        if cost is not None and cost > 0.0:
            chunk = max(1, int(_TARGET_CHUNK_S / cost))
        else:
            chunk = max(1, -(-n_items // (4 * workers)))
        return min(chunk, max(1, -(-n_items // workers)))

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        chunk_size: int | None = None,
    ) -> list[R]:
        """Apply *fn* to every item, preserving order.

        Semantics match :func:`repro.parallel.pool.parallel_map`:
        genuine task exceptions propagate; only *environment* failures
        (broken workers, forbidden subprocesses) fall back — first to a
        freshly respawned pool, then to inline serial execution.
        """
        work = list(items)
        if not work:
            return []
        obs.counter("pool.map.calls")
        obs.counter("pool.map.items", len(work))
        workers = min(self.n_workers, len(work))
        if workers == 1:
            obs.counter("pool.map.serial_inline")
            return [fn(item) for item in work]
        fn_bytes = _pickle_or_none(fn)
        if fn_bytes is None:
            obs.counter("pool.map.unpicklable")
            obs.counter("pool.map.serial_inline")
            return [fn(item) for item in work]
        if chunk_size is None:
            chunk_size = self._auto_chunk(len(work), workers)
        chunks = [work[i : i + chunk_size] for i in range(0, len(work), chunk_size)]
        telemetry = obs.enabled()
        if telemetry:
            obs.counter("pool.map.chunks", len(chunks))
            obs.gauge("pool.fn_pickle_bytes", len(fn_bytes))
            obs.gauge("pool.chunk0_pickle_bytes", len(pickle.dumps(chunks[0])))
        for attempt in (0, 1):
            try:
                with obs.span(
                    "pool.map",
                    n_items=len(work),
                    n_workers=workers,
                    n_chunks=len(chunks),
                ):
                    return self._dispatch(fn, chunks, workers, telemetry, len(work))
            except BrokenProcessPool:
                # Workers died (OOM-killed, sandbox signal).  The tasks
                # themselves did not raise, so a retry on a fresh pool
                # is safe for the pure callables this library dispatches.
                self._teardown_executor()
                if attempt == 0:
                    obs.counter("pool.map.retries")
                    continue
                break
            except (OSError, ImportError):
                # The *environment* cannot run a pool at all.
                self._teardown_executor()
                break
        obs.counter("pool.map.pool_broken")
        obs.counter("pool.map.serial_inline")
        return [fn(item) for item in work]

    def _dispatch(
        self,
        fn: Callable[[T], R],
        chunks: list[Sequence[T]],
        workers: int,
        telemetry: bool,
        n_items: int,
    ) -> list[R]:
        executor = self._ensure_executor()
        t_start = time.perf_counter()
        futures = [executor.submit(_run_chunk_timed, fn, chunk) for chunk in chunks]
        results: list[R] = []
        busy_s = 0.0
        for fut in futures:
            t_wait = time.perf_counter()
            chunk_results, chunk_busy = fut.result()
            busy_s += chunk_busy
            if telemetry:
                obs.observe("pool.chunk_wait_s", time.perf_counter() - t_wait)
            results.extend(chunk_results)
        wall = time.perf_counter() - t_start
        if busy_s > 0.0:
            cost = busy_s / n_items
            self._cost_ewma = (
                cost
                if self._cost_ewma is None
                else (1.0 - _COST_ALPHA) * self._cost_ewma + _COST_ALPHA * cost
            )
        if telemetry and wall > 0.0:
            obs.gauge(
                "pool.worker_utilization", min(1.0, busy_s / (workers * wall))
            )
        return results

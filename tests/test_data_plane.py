"""Tests for the persistent worker pool and shared-memory data plane.

The contract under test: a persistent :class:`WorkerPool` reuses its
workers across dispatches, recovers from worker death, and never leaks a
shared-memory segment — and neither the pool, the worker count, nor the
transport (shm vs inline) may change a single bit of any result.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import shm
from repro.parallel.shm import ArrayRef, SharedArrayStore, attach, shm_available
from repro.parallel.worker_pool import WorkerPool

SRC = Path(__file__).resolve().parent.parent / "src"

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="no usable shared memory in this environment"
)


def square(x):
    return x * x


def die_in_worker(x):
    # Only kills child processes: the serial-fallback rerun in the
    # parent must succeed, which is exactly what the recovery path
    # promises for pure tasks.
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return x * x


class TestSharedArrayStore:
    @needs_shm
    def test_publish_attach_roundtrip(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)
        with SharedArrayStore() as store:
            ref = store.publish(arr)
            assert isinstance(ref, ArrayRef)
            assert ref.shape == (4, 6)
            assert ref.nbytes == arr.nbytes
            view = attach(ref)
            assert np.array_equal(view, arr)
            assert not view.flags.writeable

    @needs_shm
    def test_publish_dedups_by_identity(self):
        arr = np.ones((8, 3))
        with SharedArrayStore() as store:
            r1 = store.publish(arr)
            r2 = store.publish(arr)
            assert r1 is r2
            assert store.n_segments == 1
            assert store.publish(arr.copy()).segment != r1.segment
            assert store.n_segments == 2
            assert store.bytes_mapped == 2 * arr.nbytes

    @needs_shm
    def test_close_unlinks_segments(self):
        from multiprocessing import shared_memory

        store = SharedArrayStore()  # repro: noqa[CONC002] — close() is the subject under test
        ref = store.publish(np.zeros(16))
        store.close()
        store.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref.segment, create=False)

    @needs_shm
    def test_segments_unlinked_when_dispatch_raises(self):
        from multiprocessing import shared_memory

        refs = []
        with pytest.raises(RuntimeError, match="boom"):
            with WorkerPool(2) as pool:
                store = pool.shm
                assert store is not None
                refs.append(store.publish(np.zeros((32, 4))))
                raise RuntimeError("boom")
        for ref in refs:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=ref.segment, create=False)

    def test_inline_transport_when_probe_fails(self, monkeypatch):
        monkeypatch.setattr(shm, "shm_available", lambda: False)
        arr = np.arange(12.0).reshape(3, 4)
        with WorkerPool(2) as pool:
            store = pool.shm
            assert store.transport == "inline"
            ref = store.publish(arr)
            assert ref is arr
            assert store.n_segments == 0
            view = attach(ref)
            assert np.array_equal(view, arr)
            assert not view.flags.writeable

    @needs_shm
    def test_failed_publish_switches_store_to_inline(self, monkeypatch):
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise OSError("no space left on /dev/shm")

        arr = np.ones((4, 2))
        with SharedArrayStore() as store:
            first = store.publish(np.zeros(3))
            assert isinstance(first, ArrayRef)
            monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
            assert store.publish(arr) is arr
            assert store.transport == "inline"
            assert store.n_segments == 1

    @needs_shm
    def test_pooled_map_leaves_no_tracker_errors_or_segments(self):
        # Pool workers share the parent's resource tracker; a worker
        # that unregistered its attachment used to make the parent's
        # unlink raise KeyError inside the tracker at exit.
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.parallel.shm import attach
            from repro.parallel.worker_pool import WorkerPool

            def total(ref):
                return float(attach(ref).sum())

            with WorkerPool(2) as pool:
                refs = [pool.shm.publish(np.full(64, float(i))) for i in range(4)]
                assert pool.map(total, refs, chunk_size=1) == [64.0 * i for i in range(4)]
            print(" ".join(ref.segment for ref in refs))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "KeyError" not in proc.stderr
        assert "resource_tracker" not in proc.stderr
        from multiprocessing import shared_memory

        names = proc.stdout.split()
        assert len(names) == 4
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name, create=False)

    def test_closed_store_refuses_publish(self):
        store = SharedArrayStore()  # repro: noqa[CONC002] — closed-store behavior is the subject
        store.close()
        with pytest.raises(RuntimeError):
            store.publish(np.zeros(4))


class TestWorkerPool:
    def test_map_preserves_order_and_reuses_executor(self):
        with WorkerPool(2) as pool:
            out1 = pool.map(square, range(20), chunk_size=3)
            executor = pool._executor
            out2 = pool.map(square, range(20, 40), chunk_size=3)
            assert pool._executor is executor  # persistent, not respawned
        assert out1 == [x * x for x in range(20)]
        assert out2 == [x * x for x in range(20, 40)]

    def test_single_worker_never_spawns(self):
        with WorkerPool(1) as pool:
            assert pool.map(square, range(5)) == [0, 1, 4, 9, 16]
            assert pool._executor is None

    def test_worker_crash_recovers_serially(self):
        with WorkerPool(2) as pool:
            out = pool.map(die_in_worker, range(6), chunk_size=2)
        assert out == [x * x for x in range(6)]

    def test_pool_usable_after_crash_recovery(self):
        with WorkerPool(2) as pool:
            pool.map(die_in_worker, range(4), chunk_size=1)
            assert pool.map(square, range(10), chunk_size=2) == [
                x * x for x in range(10)
            ]

    def test_closed_pool_rejects_dispatch(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map(square, range(8), chunk_size=2)

    def test_adaptive_chunking_clamps(self):
        pool = WorkerPool(4)
        # No cost estimate: static heuristic.
        assert pool._auto_chunk(100, 4) == 7
        # Fast items batch up, capped at one chunk per worker.
        pool._cost_ewma = 1e-6
        assert pool._auto_chunk(100, 4) == 25
        # Slow items: one item per chunk.
        pool._cost_ewma = 10.0
        assert pool._auto_chunk(100, 4) == 1
        pool.close()


#: One model per fold payload: float64 ``X`` (knn, exact rf) or binned
#: codes (hist rf; hist boosting, whose folds travel as lockstep groups).
PAYLOADS = {
    "knn": dict(model="knn"),
    "rf-exact": dict(model="rf"),
    "rf-hist": dict(model="rf", tree_method="hist"),
    "xgb-hist": dict(model="xgboost", tree_method="hist"),
}


class TestPlaneBitIdentity:
    """KS results identical: serial vs pooled, shm vs inline, workers 1/2/4."""

    @pytest.fixture(scope="class")
    def campaigns(self):
        from repro.simbench.runner import measure_all

        return measure_all(
            "intel",
            benchmarks=("npb/cg", "npb/is", "rodinia/heartwall", "parsec/canneal"),
            n_runs=60,
            root_seed=13,
        )

    def _ks(self, campaigns, n_workers, monkeypatch, *, shm_on, payload="knn"):
        from repro.core.config import EvalConfig
        from repro.core.evaluation import evaluate_few_runs

        monkeypatch.setattr(shm, "shm_available", shm_available if shm_on else lambda: False)
        cfg = EvalConfig(
            representation="pearsonrnd",
            n_probe_runs=8,
            n_replicas=2,
            n_workers=n_workers,
            **PAYLOADS[payload],
        )
        with WorkerPool(n_workers) as pool:
            tab = evaluate_few_runs(campaigns, config=cfg, pool=pool)
            assert pool.shm.transport == ("shm" if shm_on and shm_available() else "inline")
        return np.asarray(tab["ks"])

    @pytest.mark.parametrize("payload", list(PAYLOADS))
    def test_ks_identical_across_planes_and_workers(self, campaigns, monkeypatch, payload):
        baseline = self._ks(campaigns, 1, monkeypatch, shm_on=False, payload=payload)
        for n_workers in (1, 2, 4):
            for shm_on in (False, True):
                ks = self._ks(campaigns, n_workers, monkeypatch, shm_on=shm_on,
                              payload=payload)
                assert np.array_equal(ks, baseline), (payload, n_workers, shm_on)

    @needs_shm
    def test_shm_plane_actually_engaged(self, campaigns, monkeypatch):
        from repro import obs

        obs.enable()
        try:
            self._ks(campaigns, 2, monkeypatch, shm_on=True)
            records = obs.trace_records()
        finally:
            obs.disable()
        counters = {r["name"]: r["value"] for r in records if r.get("type") == "counter"}
        planes = {
            r["attrs"].get("plane") for r in records
            if r.get("type") == "span" and r.get("name") == "fold_batch"
        }
        assert counters.get("pool.shm_bytes_saved", 0) > 0
        assert planes == {"shm"}

"""Known-bad concurrency/data-plane idioms (positive cases)."""

import numpy as np

from repro.parallel.pool import parallel_map
from repro.parallel.shm import SharedArrayStore, attach
from repro.parallel.worker_pool import WorkerPool


def lambda_dispatch(items):
    """CONC001: lambda cannot pickle — silently serial."""
    return parallel_map(lambda x: x + 1, items)  # CONC001


def nested_def_dispatch(pool: WorkerPool, items):
    """CONC001: nested def cannot pickle either."""

    def work(item):
        return item * 2

    return pool.map(work, items)  # CONC001


def leaky_store(arr):
    """CONC002: bare local store; publish may raise before close."""
    store = SharedArrayStore()  # CONC002
    ref = store.publish(arr)
    store.close()
    return ref


def raw_segment(nbytes):
    """CONC003: raw segment creation bypasses unlink bookkeeping."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(create=True, size=nbytes)  # CONC003


def mutate_shared_view(ref):
    """CONC004: writing through an attached read-only view races."""
    view = attach(ref)
    view[0] = 1.0  # CONC004
    view.fill(0.0)  # CONC004
    return np.sum(view)


def publish_raw_despite_binned(store, X):
    """CONC005: X was binned but the float64 matrix still ships."""
    from repro.ml.binning import BinMapper

    binned = BinMapper().fit_transform(X)
    ref = store.publish(X)  # CONC005
    return binned, ref


def publish_raw_despite_binned_keyword(design, store, X):
    """CONC005: the binned encoding is passed on as a call keyword."""
    payload = dict(binned=design._binned_matrix(X))
    ref = store.publish(X)  # CONC005
    return payload, ref


def publish_raw_despite_binned_ifexp(design, store, X, hist):
    """CONC005: the binned encoding is bound inside an if-expression."""
    binned = design._binned_matrix(X) if hist else None
    ref = store.publish(X)  # CONC005
    return binned, ref

"""Parallel execution harness: deterministic seeding, process-pool map,
the persistent worker pool and its shared-memory zero-copy data plane,
and spawned long-lived server processes for the serving fleet."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# Resolved on first use: the fleet's process launcher (procs) is
# stdlib-only, and importing it must not load numpy through the rest.
__getattr__ = lazy_exports(
    __name__,
    {
        ".pool": ("default_workers", "parallel_map"),
        ".procs": ("ProcessStartupError", "SpawnedProcess"),
        ".seeding": ("seed_for", "spawn_generators", "stable_hash"),
        ".shm": ("ArrayRef", "SharedArrayStore", "attach", "shm_available"),
        ".worker_pool": ("WorkerPool",),
    },
)

if TYPE_CHECKING:
    from .pool import default_workers, parallel_map
    from .procs import ProcessStartupError, SpawnedProcess
    from .seeding import seed_for, spawn_generators, stable_hash
    from .shm import ArrayRef, SharedArrayStore, attach, shm_available
    from .worker_pool import WorkerPool

__all__ = [
    "default_workers",
    "parallel_map",
    "seed_for",
    "spawn_generators",
    "stable_hash",
    "WorkerPool",
    "SharedArrayStore",
    "ArrayRef",
    "attach",
    "shm_available",
    "SpawnedProcess",
    "ProcessStartupError",
]

"""Synchronous fleet orchestrator: processes + router on one handle.

:class:`FleetHandle` is the fleet counterpart of
:class:`~repro.serving.server.ServerHandle`: construct it with a store
root and a shard count, and it

1. starts a :class:`~repro.serving.fleet.router.FleetRouter` on a
   :class:`~repro.serving.server.BackgroundLoop` (the loop host
   ``ServerHandle`` uses) and binds the client-facing port;
2. starts every shard as a :class:`~repro.parallel.procs.SpawnedProcess`
   (a plain child process of this interpreter, its stdin held open as
   the liveness pipe) running :func:`~repro.serving.fleet.shard.run_shard`
   before it waits on any, so their start-ups overlap; then, in
   shard-id order, waits for each ready handshake (the bound port) and
   joins the shard to the router's partition map, so map versions and
   placement do not depend on which shard came up first;
3. exposes synchronous ``add_shard`` / ``remove_shard`` / ``info`` /
   ``close`` so tests, the bench harness, and the CLI drive rebalances
   without touching asyncio.

The handle lives in the router process, which loads no numpy: it
imports the shard module only to name its entry point, and hands the
shards their admission config untouched (``None``: each shard builds
the defaults), so the admission gate and its statistics load only in
the shards.

Teardown order is the graceful one end to end: the router drains every
shard over TCP (the shard answers everything in flight and exits its
own process), and only then does the handle escalate through
``SpawnedProcess.stop`` — which at that point is a quick cooperative
wait.  If the router process dies instead, each shard sees EOF on its
stdin and drains itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...errors import ValidationError
from ...parallel.procs import SpawnedProcess
from ..config import ServingConfig
from ..server import BackgroundLoop, ServingClient
from .messages import OP_FLEET, parse_shard_ready
from .router import FleetRouter
from .shard import run_shard

if TYPE_CHECKING:
    from .admission import AdmissionConfig

__all__ = ["FleetHandle"]


class FleetHandle:
    """A running fleet: N shard processes behind one router endpoint."""

    def __init__(
        self,
        store_root,
        n_shards: int = 2,
        *,
        serving_config: ServingConfig | None = None,
        admission_config: AdmissionConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        hot_window: int = 128,
        hot_threshold: int = 16,
    ) -> None:
        """Start the router and *n_shards* shard processes, fully joined."""
        if n_shards < 1:
            raise ValidationError("n_shards must be >= 1")
        self._store_root = str(store_root)
        self._serving_config = serving_config or ServingConfig()
        self._admission_config = admission_config
        self.host = host
        self._next_shard = 0
        self._procs: dict[str, SpawnedProcess] = {}
        self.router = FleetRouter(
            self._store_root,
            hot_window=hot_window,
            hot_threshold=hot_threshold,
            default_deadline_s=self._serving_config.default_deadline_s,
        )
        self._loop = BackgroundLoop(
            lambda: self.router.start(host=host, port=port),
            lambda: self.router.stop(drain_shards=True),
            name="repro-fleet-router",
        )

        spawned: list[tuple[str, SpawnedProcess]] = []
        try:
            for _ in range(n_shards):
                shard_id = self._claim_id(None)
                spawned.append((shard_id, self._spawn(shard_id)))
            for shard_id, proc in spawned:
                self._join(shard_id, proc)
        except BaseException:
            # Joined shards are drained and reaped by close(); the rest
            # were never routed to, so they are simply stopped.
            for shard_id, proc in spawned:
                if shard_id not in self._procs:
                    proc.stop(grace_s=0.0)
            self.close()
            raise

    @property
    def port(self) -> int:
        """Client-facing TCP port of the router."""
        return self.router.port

    @property
    def shard_ids(self) -> list[str]:
        """Sorted ids of the shards currently in the fleet."""
        return sorted(self._procs)

    def client(self, *, timeout_s: float = 30.0) -> ServingClient:
        """A blocking JSONL client connected to the router endpoint."""
        return ServingClient(self.host, self.port, timeout_s=timeout_s)

    def add_shard(self, shard_id: str | None = None) -> str:
        """Spawn one shard process and join it to the partition map."""
        shard_id = self._claim_id(shard_id)
        self._join(shard_id, self._spawn(shard_id))
        return shard_id

    def _claim_id(self, shard_id: str | None) -> str:
        """*shard_id*, or the next free ``shard-N``; refuses a live id."""
        if shard_id is None:
            shard_id = f"shard-{self._next_shard}"
            self._next_shard += 1
        if shard_id in self._procs:
            raise ValidationError(f"shard {shard_id!r} already exists")
        return shard_id

    def _spawn(self, shard_id: str) -> SpawnedProcess:
        """Start one shard process; returns before its handshake."""
        return SpawnedProcess(
            run_shard,
            shard_id,
            self._store_root,
            self._serving_config,
            self._admission_config,
            self.host,
            name=f"repro-{shard_id}",
        )

    def _join(self, shard_id: str, proc: SpawnedProcess) -> None:
        """Await *proc*'s handshake and add it to the router's map."""
        try:
            _, shard_host, shard_port, _ = parse_shard_ready(proc.wait_ready())
            self._loop.call(self.router.add_shard(shard_id, shard_host, shard_port))
        except BaseException:
            proc.stop(grace_s=0.0)
            raise
        self._procs[shard_id] = proc

    def remove_shard(self, shard_id: str) -> None:
        """Gracefully drain one shard out of the fleet and reap its process."""
        if shard_id not in self._procs:
            raise ValidationError(f"shard {shard_id!r} is not in the fleet")
        self._loop.call(self.router.remove_shard(shard_id, drain=True))
        self._procs.pop(shard_id).stop(grace_s=10.0)

    def info(self, *, samples: bool = False) -> dict:
        """The ``fleet`` op, served locally: map + heartbeats (+ samples)."""
        return self._loop.call(self.router._fleet_op({"op": OP_FLEET, "samples": samples}))

    def latency_samples(self) -> list:
        """Router latency samples as ``(latency_s, inflight, shard_ord)``."""

        async def grab():
            return self.router.latency_samples()

        return self._loop.call(grab())

    def close(self) -> None:
        """Drain every shard, stop the router loop, reap all processes."""
        self._loop.close(timeout_s=60)
        for shard_id in sorted(self._procs):
            self._procs[shard_id].stop(grace_s=10.0)
        self._procs.clear()

    def __enter__(self) -> "FleetHandle":
        """Context-manager entry (the fleet is already running)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the fleet."""
        self.close()

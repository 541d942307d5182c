"""Shard worker: one serving process of the fleet.

A shard is an ordinary :class:`~repro.serving.service.PredictionService`
+ JSONL TCP server running in its own spawned process, with three fleet
additions:

* a :class:`~repro.serving.fleet.admission.KingmanAdmission` gate sheds
  in front of the fixed ``queue_limit`` cap, which stays on as the depth
  backstop (the gate admits unconditionally while it warms up);
* two extra protocol ops: ``health`` (heartbeat pull — admission
  snapshot, service stats, in-flight depth) and ``drain`` (graceful
  leave — acknowledge, answer everything in flight, exit);
* a startup handshake: the freshly bound port travels up the
  :class:`~repro.parallel.procs.SpawnedProcess` pipe before the parent
  proceeds, so the router never races an unbound socket.

A shard preloads nothing.  Pearson draws run on numpy alone; a request
reaches ``scipy.special`` only through a type-V draw or a lognormal fit
of a sketch without the 0.5/0.99 pair, and pays its one-off import
(about 0.2 s and 17 MB) on first use.  The Kingman gate reads E[S] and
Cs² from window percentiles that one slow request cannot reach, so that
stall sheds nothing behind it.

Shards hydrate models from the **shared content-addressed store** — the
parent fits and saves once, shards only read — so any shard can serve
any model bit-identically; the partition map is an affinity policy (LRU
warmth), never a correctness constraint.

``run_shard`` is the process entry point and must stay module-level:
the ``spawn`` start method pickles it (the CONC001 constraint).
"""

from __future__ import annotations

import asyncio
import os

from ..registry import ModelRegistry
from ..server import Endpoint, service_ops
from ..service import PredictionService, ServingConfig
from .admission import AdmissionConfig, KingmanAdmission
from .messages import OP_DRAIN, OP_HEALTH, drain_reply, health_reply, shard_ready

__all__ = ["run_shard"]


async def _shard_main(
    conn,
    shard_id: str,
    store_root: str,
    serving_config: ServingConfig,
    admission_config: AdmissionConfig,
    host: str,
) -> None:
    """Bind, handshake, serve until a ``drain`` op, then exit cleanly."""
    admission = KingmanAdmission(admission_config)
    service = PredictionService(
        ModelRegistry(store_root), serving_config, admission=admission
    )
    draining = asyncio.Event()

    async def handle_health(payload) -> dict:
        """``health`` op: the heartbeat the router pulls."""
        stats = service.stats()
        return health_reply(
            shard_id, admission.snapshot().to_wire(), stats, pending=stats["pending"]
        )

    async def handle_drain(payload) -> dict:
        """``drain`` op: acknowledge, then trigger graceful teardown."""
        asyncio.get_running_loop().call_soon(draining.set)
        return drain_reply(shard_id, answered=service.stats()["requests"])

    endpoint = Endpoint(
        {**service_ops(service), OP_HEALTH: handle_health, OP_DRAIN: handle_drain}
    )
    await endpoint.start(host=host, port=0)
    await service.start()
    conn.send(shard_ready(shard_id, host, endpoint.port, os.getpid()))
    conn.close()

    await draining.wait()
    # Graceful leave: stop accepting, answer everything already in
    # flight (including the drain acknowledgement itself), then return.
    await endpoint.close(drain=service.close)


def run_shard(
    conn,
    shard_id: str,
    store_root: str,
    serving_config: ServingConfig,
    admission_config: AdmissionConfig,
    host: str = "127.0.0.1",
) -> None:
    """Process entry point (module-level for spawn picklability).

    Runs one shard event loop to completion; *conn* is the write end of
    the parent's handshake pipe and receives one
    :func:`~repro.serving.fleet.messages.shard_ready` payload.
    """
    try:
        asyncio.run(
            _shard_main(
                conn, shard_id, store_root, serving_config, admission_config, host
            )
        )
    except KeyboardInterrupt:
        # A terminal Ctrl-C signals the whole foreground process group,
        # so shards see SIGINT alongside the parent. The parent owns the
        # shutdown ordering (drain op, then reap) — exit quietly rather
        # than dumping a traceback over the operator's terminal.
        pass

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
  proceeds, so the router never races an unbound socket;
* the sampler stack (``scipy.special``, the one module a request can
  still import lazily) is loaded before the shard binds.  Its one-off
  import takes about 0.2 s; paid on the first request that needs it
  instead, the Kingman gate would read it as service time and shed the
  requests behind it.

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

from ...stats.pearson import load_sampler_stack
from ..registry import ModelRegistry
from ..server import serve, shutdown_server
from ..service import ServingConfig
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
    registry = ModelRegistry(store_root)
    admission = KingmanAdmission(admission_config)
    inflight: set = set()
    draining = asyncio.Event()

    async def handle_health(service, payload) -> dict:
        """``health`` op: the heartbeat the router pulls."""
        return health_reply(
            shard_id,
            admission.snapshot().to_wire(),
            service.stats(),
            pending=service.stats()["pending"],
        )

    async def handle_drain(service, payload) -> dict:
        """``drain`` op: acknowledge, then trigger graceful teardown."""
        asyncio.get_running_loop().call_soon(draining.set)
        return drain_reply(shard_id, answered=service.stats()["requests"])

    server, service = await serve(
        registry,
        serving_config,
        host=host,
        port=0,
        admission=admission,
        inflight=inflight,
        extra_ops={OP_HEALTH: handle_health, OP_DRAIN: handle_drain},
    )
    port = server.sockets[0].getsockname()[1]
    conn.send(shard_ready(shard_id, host, port, os.getpid()))
    conn.close()

    await draining.wait()
    # Graceful leave: stop accepting, answer everything already in
    # flight (including the drain acknowledgement itself), then return.
    await shutdown_server(server, service, inflight)


def run_shard(
    conn,
    shard_id: str,
    store_root: str,
    serving_config: ServingConfig,
    admission_config: AdmissionConfig,
    host: str = "127.0.0.1",
) -> None:
    """Process entry point (module-level for spawn picklability).

    Loads the sampler stack, then runs one shard event loop to
    completion; *conn* is the write end of the parent's handshake pipe
    and receives one :func:`~repro.serving.fleet.messages.shard_ready`
    payload.
    """
    try:
        load_sampler_stack()
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

"""Shard worker: one serving process of the fleet.

A shard is an ordinary :class:`~repro.serving.service.PredictionService`
+ JSONL TCP server running in its own child process, with four fleet
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
* a parent watch: the shard's stdin is the launcher's liveness pipe,
  and EOF on it (the parent stopped the shard or died, even by SIGKILL)
  drains the shard exactly as a ``drain`` op does, so no shard outlives
  its fleet holding a port.

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
the launcher pickles it by reference (the CONC001 constraint).  The
fleet handle imports this module in the router process to name it, so
the module itself imports no numpy: the service and the admission gate
are imported inside the shard process, when it starts.
"""

from __future__ import annotations

import asyncio
import os
import sys
from typing import TYPE_CHECKING

from ..registry import ModelRegistry
from ..server import Endpoint, service_ops
from .messages import OP_DRAIN, OP_HEALTH, drain_reply, health_reply, shard_ready

if TYPE_CHECKING:
    from ..config import ServingConfig
    from .admission import AdmissionConfig

__all__ = ["run_shard"]


async def _shard_main(
    conn,
    shard_id: str,
    store_root: str,
    serving_config: ServingConfig | None,
    admission_config: AdmissionConfig | None,
    host: str,
) -> None:
    """Bind, handshake, serve until a ``drain`` op or EOF on stdin, then exit."""
    # Imported here, in the shard process: the fleet handle imports this
    # module in the router process only to name run_shard as the target.
    from ..service import PredictionService
    from .admission import KingmanAdmission

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
    loop = asyncio.get_running_loop()
    stdin = sys.stdin.fileno()

    def parent_gone() -> None:
        # The parent writes nothing after the start arguments, so stdin
        # turns readable only at EOF: the parent stopped us or died.
        loop.remove_reader(stdin)
        draining.set()

    loop.add_reader(stdin, parent_gone)
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
    serving_config: ServingConfig | None,
    admission_config: AdmissionConfig | None,
    host: str = "127.0.0.1",
) -> None:
    """Process entry point (module-level: the launcher pickles it by reference).

    Runs one shard event loop to completion; *conn* is the write end of
    the parent's handshake pipe and receives one
    :func:`~repro.serving.fleet.messages.shard_ready` payload.  A config
    left ``None`` takes its defaults.  The shard's stdin must be the
    parent's liveness pipe (as :class:`~repro.parallel.procs.SpawnedProcess`
    sets it up): EOF on it drains the shard as a ``drain`` op does.
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

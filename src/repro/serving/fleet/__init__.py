"""Sharded multi-process serving fleet with queueing-aware admission.

The fleet turns the single-process server of :mod:`repro.serving` into
N shard processes behind one asyncio front router:

* :mod:`~repro.serving.fleet.partition` — rendezvous-hashed partition
  map: model placement is a pure function of fleet membership, with
  minimal movement on join/leave;
* :mod:`~repro.serving.fleet.admission` — Kingman wait-curve admission:
  each shard sheds 429 *before* the knee of the G/G/1 wait curve, from
  measured utilization ρ and service-time variability Cs²;
* :mod:`~repro.serving.fleet.shard` — the shard worker process (an
  ordinary serving endpoint plus ``health``/``drain`` ops);
* :mod:`~repro.serving.fleet.router` — the front endpoint: placement,
  hot-model replica rotation, graceful rebalance, ``fleet.*`` metrics;
* :mod:`~repro.serving.fleet.handle` — synchronous orchestration
  (spawn, join, drain, close) for tests, the bench, and the CLI;
* :mod:`~repro.serving.fleet.feedback` — the fleet's own latency
  stream fed back through the paper's UC1 pipeline to predict fleet
  p99.

Operations story (topology, admission math, runbook):
``docs/FLEET.md``.  Metric contract: ``docs/OBSERVABILITY.md``.
"""

from typing import TYPE_CHECKING

from ..._lazy import lazy_exports

# Resolved on first use: the router process imports the handle and the
# router, and none of admission (which imports repro.stats) or the
# feedback loop, which load numpy.
__getattr__ = lazy_exports(
    __name__,
    {
        ".admission": ("AdmissionConfig", "AdmissionSnapshot", "KingmanAdmission"),
        ".feedback": ("predict_fleet_p99", "samples_to_campaign"),
        ".handle": ("FleetHandle",),
        ".messages": ("OP_DRAIN", "OP_FLEET", "OP_HEALTH"),
        ".partition": ("PartitionMap", "shard_score"),
        ".router": ("FleetRouter", "ShardLink"),
        ".shard": ("run_shard",),
    },
)

if TYPE_CHECKING:
    from .admission import AdmissionConfig, AdmissionSnapshot, KingmanAdmission
    from .feedback import predict_fleet_p99, samples_to_campaign
    from .handle import FleetHandle
    from .messages import OP_DRAIN, OP_FLEET, OP_HEALTH
    from .partition import PartitionMap, shard_score
    from .router import FleetRouter, ShardLink
    from .shard import run_shard

__all__ = [
    "AdmissionConfig",
    "AdmissionSnapshot",
    "KingmanAdmission",
    "predict_fleet_p99",
    "samples_to_campaign",
    "FleetHandle",
    "OP_DRAIN",
    "OP_FLEET",
    "OP_HEALTH",
    "PartitionMap",
    "shard_score",
    "FleetRouter",
    "ShardLink",
    "run_shard",
]

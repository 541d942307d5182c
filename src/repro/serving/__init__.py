"""repro.serving — online prediction serving for fitted predictors.

Fit once, serve many: this subpackage adds a persistence and serving
layer on top of the core pipelines without touching their math.

* :mod:`~repro.serving.serialization` — versioned, integrity-checked
  bytes for predictors and representations (``REPROMODEL1`` format);
* :mod:`~repro.serving.artifacts` — content-addressed durable store
  (atomic writes, sha256-verified reads, named tags);
* :mod:`~repro.serving.registry` — :class:`ModelRegistry`, fit-once
  persistence with an in-process LRU of hydrated predictors;
* :mod:`~repro.serving.service` — :class:`PredictionService`, the
  micro-batching data plane (work-conserving batches, response cache,
  admission control, deadlines) with bit-identical outputs;
* :mod:`~repro.serving.server` — the stdlib-asyncio JSONL-over-TCP
  endpoint (an op table the server, fleet shards and router share),
  background :class:`ServerHandle`, and the blocking
  :class:`ServingClient`;
* :mod:`~repro.serving.fleet` — sharded multi-process fleet: N shard
  processes behind one router, rendezvous-hashed model placement,
  hot-model replica rotation, and Kingman queueing-aware admission
  (operations guide in ``docs/FLEET.md``).

Quickstart::

    from repro import FewRunsPredictor, measure_all
    from repro.serving import ModelRegistry, ServerHandle, ServingClient

    registry = ModelRegistry("results/models")
    registry.save(FewRunsPredictor().fit(measure_all("intel")), name="uc1")
    with ServerHandle(registry) as server:
        with ServingClient("127.0.0.1", server.port) as client:
            probe = measure_all("intel")["npb/cg"].subset(range(10))
            reply = client.predict("uc1", probe)

The subsystem is import-on-demand (``import repro.serving``) and not
pulled in by ``import repro``; the serving metric contract lives in
``docs/OBSERVABILITY.md``, the operational guide in ``docs/SERVING.md``.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# Resolved on first use: the fleet router imports this package but not
# the service, its protocol or numpy.
__getattr__ = lazy_exports(
    __name__,
    {
        ".artifacts": ("ArtifactStore",),
        ".registry": ("DEFAULT_MODEL_ROOT", "ModelRegistry"),
        ".serialization": ("from_bytes", "to_bytes"),
        ".server": ("ServerHandle", "ServingClient", "serve"),
        ".config": ("ServingConfig",),
        ".service": ("PredictionService",),
    },
)

if TYPE_CHECKING:
    from .artifacts import ArtifactStore
    from .registry import DEFAULT_MODEL_ROOT, ModelRegistry
    from .serialization import from_bytes, to_bytes
    from .server import ServerHandle, ServingClient, serve
    from .config import ServingConfig
    from .service import PredictionService

__all__ = [
    "ArtifactStore",
    "DEFAULT_MODEL_ROOT",
    "ModelRegistry",
    "PredictionService",
    "ServerHandle",
    "ServingClient",
    "ServingConfig",
    "from_bytes",
    "serve",
    "to_bytes",
]

"""Fit-once model persistence: the serving-side model registry.

:class:`ModelRegistry` joins three layers:

* :mod:`repro.serving.serialization` — deterministic versioned bytes
  with load-time schema checks;
* :mod:`repro.serving.artifacts` — content-addressed durable storage
  (``results/models/`` by default), so the same fitted model saved
  twice occupies one object and a model's key *is* its identity;
* an in-process LRU of hydrated predictors, so the serving hot path
  never re-reads or re-unpickles a model it used recently.

Registry traffic is observable: ``serving.registry.saves`` / ``.loads``
count store round-trips, ``.hits`` / ``.misses`` count LRU outcomes
(contract in ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

from .. import obs
from ..errors import ValidationError
from .artifacts import ArtifactStore
from .serialization import from_bytes, peek_header, to_bytes

__all__ = ["ModelRegistry", "DEFAULT_MODEL_ROOT"]

#: Default on-disk location for persisted models, relative to the
#: process working directory (matches the repo's ``results/`` layout).
DEFAULT_MODEL_ROOT = "results/models"


class ModelRegistry:
    """Named, versioned storage for fitted predictors with an LRU cache."""

    def __init__(self, root=DEFAULT_MODEL_ROOT, *, cache_size: int = 8) -> None:
        """Open a registry over *root*, keeping *cache_size* hydrated models."""
        if cache_size < 1:
            raise ValidationError("cache_size must be >= 1")
        self.store = ArtifactStore(root)
        self.cache_size = cache_size
        self._cache: OrderedDict[str, object] = OrderedDict()

    @property
    def root(self) -> Path:
        """Filesystem root of the backing artifact store."""
        return self.store.root

    def save(self, predictor: object, name: str | None = None) -> str:
        """Persist a fitted predictor; returns its content key.

        When *name* is given the key is also tagged, so later loads can
        say ``load("prod")`` instead of a 64-hex key.
        """
        blob = to_bytes(predictor)
        header = peek_header(blob)
        key = self.store.put(
            blob,
            meta={
                "class": header["class"],
                "repro_version": header["repro_version"],
                "schema_version": header["schema_version"],
            },
        )
        if name is not None:
            self.store.tag(name, key)
        self._cache[key] = predictor
        self._cache.move_to_end(key)
        self._evict()
        obs.counter("serving.registry.saves")
        return key

    def resolve(self, name_or_key: str) -> str:
        """Resolve a tag or key to the content key (no hydration)."""
        return self.store.resolve(name_or_key)

    def load(self, name_or_key: str) -> object:
        """Hydrated predictor for a tag or content key.

        Served from the in-process LRU when possible; otherwise the blob
        is read, integrity- and schema-checked, unpickled, and cached.
        """
        key = self.store.resolve(name_or_key)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            obs.counter("serving.registry.hits")
            return cached
        obs.counter("serving.registry.misses")
        predictor = from_bytes(self.store.get(key))
        obs.counter("serving.registry.loads")
        self._cache[key] = predictor
        self._cache.move_to_end(key)
        self._evict()
        return predictor

    def _evict(self) -> None:
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def available(self) -> dict[str, dict]:
        """Listing of stored models: key, class, and any tags, sorted by key."""
        tags_by_key: dict[str, list[str]] = {}
        for name, key in self.store.tags().items():
            tags_by_key.setdefault(key, []).append(name)
        out: dict[str, dict] = {}
        for key in self.store.keys():
            meta = self.store.meta(key)
            out[key] = {
                "class": meta.get("class"),
                "size": meta.get("size"),
                "tags": sorted(tags_by_key.get(key, [])),
            }
        return out

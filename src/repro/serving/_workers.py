"""Worker-side entry points for the pool execution plane.

The serving batch loop can dispatch prediction work onto the repo's
persistent :class:`~repro.parallel.worker_pool.WorkerPool`.  Pool
dispatch requires a module-level callable (anything nested silently
degrades to serial — CONC001), so the task function lives here, and
each worker process keeps its own small cache of hydrated models keyed
by ``(store root, content key)`` so a batch of requests against the
same model loads it at most once per worker lifetime.

Determinism: workers run the exact same per-request
``predictor.predict_vector`` call the in-process plane runs, so plane
choice cannot change a single output bit.
"""

from __future__ import annotations

from collections import OrderedDict

from .protocol import decode_probe, encode_array

__all__ = ["predict_task"]

#: Per-process hydrated-model cache; sized for a handful of hot models.
_MODEL_CACHE: OrderedDict[tuple[str, str], object] = OrderedDict()
_MODEL_CACHE_SIZE = 4


def _load_model(root: str, key: str) -> object:
    """Hydrate (or reuse) the model with *key* from the store at *root*."""
    from .registry import ModelRegistry

    cache_key = (root, key)
    cached = _MODEL_CACHE.get(cache_key)
    if cached is not None:
        _MODEL_CACHE.move_to_end(cache_key)
        return cached
    model = ModelRegistry(root).load(key)
    _MODEL_CACHE[cache_key] = model
    _MODEL_CACHE.move_to_end(cache_key)
    while len(_MODEL_CACHE) > _MODEL_CACHE_SIZE:
        _MODEL_CACHE.popitem(last=False)
    return model


def predict_task(item: tuple[str, str, dict]) -> str:
    """Pool task: ``(store_root, model_key, probe_payload) -> vector``.

    The payload is an encoded probe (``probe_kind`` discriminator).
    Returns the predicted representation vector base64-encoded (exact
    float64 bytes), keeping the IPC payload JSON-safe and bit-faithful.
    """
    root, key, payload = item
    predictor = _load_model(root, key)
    vector = predictor.predict_vector(decode_probe(payload))
    return encode_array(vector)

"""Serving policy knobs: :class:`ServingConfig`.

The service's tunables live apart from the service so that the fleet
router, which enforces the shards' default deadline, and the fleet
handle, which hands the config to every shard, read it without loading
the service and numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError

__all__ = ["ServingConfig"]


@dataclass(frozen=True)
class ServingConfig:
    """Tunable serving policy (all knobs, no behavior).

    Attributes
    ----------
    max_batch:
        Largest number of requests executed as one batch.
    queue_limit:
        Admission bound: maximum requests in flight before new arrivals
        are rejected with status 429.  Always enforced — with an
        ``admission`` gate installed it acts as the hard depth backstop
        behind the queueing-aware policy.
    cache_size:
        Response-cache capacity (entries); ``cache_enabled=False``
        bypasses the cache entirely.
    cache_enabled:
        Whether fingerprint-identical requests may be served from cache.
    default_deadline_s:
        Deadline applied when a request does not carry its own.
    """

    max_batch: int = 32
    queue_limit: int = 128
    cache_size: int = 256
    cache_enabled: bool = True
    default_deadline_s: float = 5.0

    def __post_init__(self) -> None:
        """Validate ranges; raises :class:`~repro.errors.ValidationError`."""
        if self.max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        if self.queue_limit < 1:
            raise ValidationError("queue_limit must be >= 1")
        if self.cache_size < 1:
            raise ValidationError("cache_size must be >= 1")
        if self.default_deadline_s <= 0.0:
            raise ValidationError("default_deadline_s must be > 0")

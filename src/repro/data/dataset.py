"""Run-campaign container.

A *campaign* is the measured record the prediction pipelines consume: for
one (benchmark, system) pair, the runtimes of many repeated executions and
the per-run profiling-metric matrix.  Measured campaign sets persist on
disk through :class:`~repro.data.campaign_cache.CampaignCache`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_float_array
from ..errors import ValidationError

__all__ = ["RunCampaign"]


@dataclass(frozen=True)
class RunCampaign:
    """All measured runs of one benchmark on one system.

    Attributes
    ----------
    benchmark:
        Fully-qualified benchmark name, e.g. ``"spec_omp/376"``.
    system:
        System name, e.g. ``"intel"``.
    runtimes:
        Absolute runtimes in seconds, shape ``(n_runs,)``.
    counters:
        Raw (non-normalized) counter totals per run, shape
        ``(n_runs, n_metrics)``.
    metric_names:
        Column labels for ``counters``.
    """

    benchmark: str
    system: str
    runtimes: np.ndarray
    counters: np.ndarray
    metric_names: tuple[str, ...]

    def __post_init__(self) -> None:
        rt = as_float_array(self.runtimes, name="runtimes", allow_empty=False)
        ct = as_float_array(self.counters, name="counters", allow_empty=False)
        if rt.ndim != 1:
            raise ValidationError(f"runtimes must be 1-D, got {rt.shape}")
        if ct.shape != (rt.size, len(self.metric_names)):
            raise ValidationError(
                f"counters shape {ct.shape} inconsistent with "
                f"{rt.size} runs x {len(self.metric_names)} metrics"
            )
        if np.any(rt <= 0.0):
            raise ValidationError("runtimes must be strictly positive")
        object.__setattr__(self, "runtimes", rt)
        object.__setattr__(self, "counters", ct)
        object.__setattr__(self, "metric_names", tuple(self.metric_names))

    @property
    def n_runs(self) -> int:
        """Number of measured runs."""
        return int(self.runtimes.size)

    def relative_times(self) -> np.ndarray:
        """Runtimes normalized to mean 1 (the paper's 'relative time')."""
        return self.runtimes / self.runtimes.mean()

    def rates(self) -> np.ndarray:
        """Counters normalized per second of runtime (paper Section III-B1)."""
        return self.counters / self.runtimes[:, None]

    def subset(self, indices) -> "RunCampaign":
        """Campaign restricted to the given run indices."""
        idx = np.asarray(indices, dtype=np.intp)
        return RunCampaign(
            self.benchmark,
            self.system,
            self.runtimes[idx],
            self.counters[idx],
            self.metric_names,
        )

    def sample_runs(self, n: int, rng: np.random.Generator) -> "RunCampaign":
        """Random without-replacement subset of *n* runs."""
        if n > self.n_runs:
            raise ValidationError(f"cannot sample {n} of {self.n_runs} runs")
        return self.subset(rng.choice(self.n_runs, size=n, replace=False))

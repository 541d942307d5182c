"""Application-profile featurization (paper Section III-B1).

An application's profile is represented application-independently:

* every counter is normalized **per second of runtime** so applications
  with different absolute runtimes share a scale;
* when multiple runs are available, each normalized metric contributes its
  **mean, standard deviation, skewness, and kurtosis** across the runs
  (higher moments were tried by the authors and did not help);
* optionally (default on) the per-run rates are log-transformed before the
  moments are taken — counter rates are lognormal-ish and spread over nine
  orders of magnitude, and distance-based models need comparable feature
  scales.  The experiment configs expose this as an ablation knob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.dataset import RunCampaign
from ..errors import ValidationError
from ..stats.moments import moment_matrix

__all__ = ["FeatureConfig", "profile_features", "feature_names"]

_MOMENT_SUFFIXES = ("mean", "std", "skew", "kurt")


@dataclass(frozen=True)
class FeatureConfig:
    """Featurization options.

    Attributes
    ----------
    log_rates:
        Take ``log`` of per-second rates before computing moments.
    include_higher_moments:
        When False, only the per-metric mean survives (the paper's
        input-moment ablation).
    """

    log_rates: bool = True
    include_higher_moments: bool = True

    @property
    def n_moments(self) -> int:
        return 4 if self.include_higher_moments else 1


def profile_features(
    campaign: RunCampaign, config: FeatureConfig | None = None
) -> np.ndarray:
    """Feature vector of one (possibly few-run) campaign.

    Shape ``(n_metrics * n_moments,)`` ordered metric-major:
    ``[m0.mean, m0.std, m0.skew, m0.kurt, m1.mean, ...]``.
    """
    cfg = config or FeatureConfig()
    rates = campaign.rates()  # (n_runs, n_metrics)
    if cfg.log_rates:
        if np.any(rates <= 0.0):
            raise ValidationError("rates must be positive for log featurization")
        rates = np.log(rates)
    moments = moment_matrix(rates.T)  # (n_metrics, 4)
    if not cfg.include_higher_moments:
        moments = moments[:, :1]
    return moments.reshape(-1)


def feature_names(
    metric_names: tuple[str, ...], config: FeatureConfig | None = None
) -> list[str]:
    """Column labels matching :func:`profile_features` ordering."""
    cfg = config or FeatureConfig()
    suffixes = _MOMENT_SUFFIXES[: cfg.n_moments]
    return [f"{m}.{s}" for m in metric_names for s in suffixes]

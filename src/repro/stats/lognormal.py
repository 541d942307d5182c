"""Lognormal percentile→moment formulas, shared across the library.

Percentile-only telemetry (p50/p95/p99 exports) carries no
distribution-free variance information: recovering moments from a handful
of quantiles *requires* a modeling assumption.  This module is the single
home of the library's explicit **lognormal** assumption — positive
support, right skew, moderate tails — used by two consumers:

* :class:`~repro.serving.fleet.admission.KingmanAdmission`, which
  estimates the service-time E[S] and Cs² from its measured window's
  p50/p90 (the formulas historically lived there);
* :class:`~repro.core.sketch.QuantileSketch`, which recovers model
  features and full moment vectors from percentile-only probes.

Under ``X ~ LogNormal(mu, sigma)`` the quantile at level ``p`` is
``exp(mu + z_p * sigma)`` with ``z_p = Phi^-1(p)``, so two percentiles
pin both parameters::

    sigma = ln(p99/p50) / z99          (z99 = Phi^-1(0.99) ~ 2.3263)
    mu    = ln(p50)
    Cs^2  = exp(sigma^2) - 1

With more than two levels, :func:`fit_lognormal` least-squares the line
``ln(q_p) = mu + sigma * z_p`` through all of them — but keeps the exact
p50/p99 closed form when those two levels are available, bit-identical
to :func:`cs2_from_percentiles`.  The admission gate fits the p50/p90
pair of its window the same way (:func:`sigma_from_quantiles`).
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import as_float_array
from ..errors import ValidationError
from .moments import MomentVector

__all__ = [
    "Z90",
    "Z99",
    "sigma_from_quantiles",
    "sigma_from_percentiles",
    "cs2_from_percentiles",
    "cs2_from_moments",
    "fit_lognormal",
    "lognormal_moments",
    "lognormal_quantile",
    "lognormal_cdf",
]

#: z-score of the 99th percentile of the standard normal, Φ⁻¹(0.99).
#: Hardcoded (scipy.stats.norm.ppf(0.99)) so the admission hot path and
#: the exact two-point fit need no scipy import.
Z99 = 2.3263478740408408

#: z-score of the 90th percentile, Φ⁻¹(0.90), hardcoded for the same
#: reason: the admission gate fits its window's p50/p90 pair.
Z90 = 1.2815515655446004

#: Tolerance for matching sketch levels against the canonical 0.5/0.99
#: pair (levels are user-supplied floats; exact ``==`` would be fragile).
_LEVEL_TOL = 1e-9


def sigma_from_quantiles(p50: float, upper: float, z: float) -> float:
    """Lognormal shape parameter from the median and one upper quantile.

    ``sigma = ln(upper/p50) / z``, where *upper* is the quantile at
    standard-normal score *z* > 0 (e.g. :data:`Z90`, :data:`Z99`).
    """
    if not (0.0 < p50 <= upper):
        raise ValidationError(
            f"percentiles must satisfy 0 < p50 <= upper, got p50={p50}, "
            f"upper={upper}"
        )
    return math.log(upper / p50) / z


def sigma_from_percentiles(p50: float, p99: float) -> float:
    """Lognormal shape parameter from the p50/p99 pair.

    ``sigma = ln(p99/p50) / z99`` — the exact closed form when the two
    canonical percentiles are available.
    """
    return sigma_from_quantiles(p50, p99, Z99)


def cs2_from_percentiles(p50: float, p99: float) -> float:
    """Cs² from two percentiles under the explicit lognormal assumption.

    Assumes the quantity is log-normal (see the module docstring for why
    the assumption is required and when it is reasonable):
    ``sigma = ln(p99/p50)/z99`` and ``Cs² = exp(sigma²) − 1``.
    """
    sigma_ln = sigma_from_percentiles(p50, p99)
    return math.expm1(sigma_ln * sigma_ln)


def cs2_from_moments(samples) -> float:
    """Textbook Cs² = Var(S)/E[S]² from raw service-time samples."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 2:
        raise ValidationError("cs2_from_moments needs at least two samples")
    mean = float(arr.mean())
    if mean <= 0.0:
        raise ValidationError("service times must have a positive mean")
    return float(arr.var() / (mean * mean))


def _z_scores(levels: np.ndarray) -> np.ndarray:
    """Standard-normal quantiles of the given probability levels."""
    from scipy.special import ndtri

    return np.asarray(ndtri(levels), dtype=np.float64)


def fit_lognormal(levels, values) -> tuple[float, float]:
    """Fit ``(mu, sigma)`` of a lognormal to (level, quantile-value) pairs.

    When the level set contains the canonical 0.5/0.99 pair (within
    tolerance), the exact two-point closed form is used — ``mu =
    ln(p50)``, ``sigma = ln(p99/p50)/z99`` — matching
    :func:`cs2_from_percentiles` bit for bit.  Otherwise the line ``ln(q_p) = mu + sigma * z_p`` is
    least-squares fitted through all levels.

    ``sigma`` is clamped to be non-negative (quantile values are
    validated monotone upstream, but a flat sketch fits sigma = 0).
    """
    lv = as_float_array(levels, name="levels")
    vals = as_float_array(values, name="values")
    lv = np.atleast_1d(lv)
    vals = np.atleast_1d(vals)
    if lv.shape != vals.shape or lv.ndim != 1:
        raise ValidationError(
            f"levels and values must be matching 1-D arrays, got "
            f"{lv.shape} and {vals.shape}"
        )
    if lv.size < 2:
        raise ValidationError("fit_lognormal needs at least two levels")
    if np.any((lv <= 0.0) | (lv >= 1.0)):
        raise ValidationError("levels must lie strictly inside (0, 1)")
    if np.any(vals <= 0.0):
        raise ValidationError("quantile values must be strictly positive")

    i50 = np.flatnonzero(np.abs(lv - 0.5) < _LEVEL_TOL)
    i99 = np.flatnonzero(np.abs(lv - 0.99) < _LEVEL_TOL)
    if i50.size and i99.size:
        p50 = float(vals[i50[0]])
        p99 = float(vals[i99[0]])
        return math.log(p50), sigma_from_percentiles(p50, p99)

    z = _z_scores(lv)
    logv = np.log(vals)
    z_mean = float(z.mean())
    v_mean = float(logv.mean())
    denom = float(((z - z_mean) ** 2).sum())
    if denom <= 0.0:
        raise ValidationError("levels are degenerate: need distinct levels")
    sigma = float(((z - z_mean) * (logv - v_mean)).sum() / denom)
    sigma = max(sigma, 0.0)
    mu = v_mean - sigma * z_mean
    return mu, sigma


def lognormal_moments(mu: float, sigma: float) -> MomentVector:
    """First four moments of ``LogNormal(mu, sigma)``.

    Kurtosis follows the library convention (standardized fourth central
    moment; normal = 3, *not* excess).  Moments beyond float64 (the
    kurtosis first, for sigma above about 13.3) raise
    :class:`~repro.errors.ValidationError`.
    """
    if sigma < 0.0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    s2 = sigma * sigma
    try:
        mean = math.exp(mu + s2 / 2.0)
        omega_m1 = math.expm1(s2)  # exp(sigma^2) - 1
        std = mean * math.sqrt(omega_m1)
        skew = (math.exp(s2) + 2.0) * math.sqrt(omega_m1)
        kurt = (
            math.exp(4.0 * s2) + 2.0 * math.exp(3.0 * s2) + 3.0 * math.exp(2.0 * s2) - 3.0
        )
    except OverflowError:
        pass
    else:
        if all(math.isfinite(m) for m in (mean, std, skew, kurt)):
            return MomentVector(mean, std, skew, kurt)
    raise ValidationError(
        f"lognormal moments overflow float64 (mu={mu:.6g}, sigma={sigma:.6g})"
    )


def lognormal_quantile(level, mu: float, sigma: float) -> np.ndarray:
    """Quantile function of ``LogNormal(mu, sigma)`` at *level* (vectorized)."""
    lv = np.atleast_1d(as_float_array(level, name="level"))
    if np.any((lv <= 0.0) | (lv >= 1.0)):
        raise ValidationError("quantile levels must lie strictly inside (0, 1)")
    return np.exp(mu + _z_scores(lv) * sigma)


def lognormal_cdf(x, mu: float, sigma: float) -> np.ndarray:
    """CDF of ``LogNormal(mu, sigma)`` at *x* (vectorized; 0 for x <= 0)."""
    from scipy.special import ndtr

    xq = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.zeros_like(xq)
    pos = xq > 0.0
    if sigma <= 0.0:
        # Degenerate point mass at exp(mu).
        return (xq >= math.exp(mu)).astype(np.float64)
    out[pos] = ndtr((np.log(xq[pos]) - mu) / sigma)
    return out

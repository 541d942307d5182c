"""Distribution representations (paper Section III-B2).

A *representation* defines how a relative-time distribution is encoded
into the fixed-length vector a regression model predicts, and how a
predicted vector is decoded back into a distribution for scoring and
display.  The paper compares three; all are implemented behind one
interface:

* :class:`HistogramRepresentation` — the bins of a relative-time density
  histogram (a discretized PDF);
* :class:`PyMaxEntRepresentation` — the first four moments, decoded with
  maximum-entropy reconstruction;
* :class:`PearsonRndRepresentation` — the first four moments, decoded by
  drawing random numbers from the Pearson system with those moments
  (MATLAB ``pearsrnd``); the paper's winner.

Decoded objects expose sampling and a CDF, so KS scoring works uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .._validation import as_sample_array, check_random_state
from ..errors import ReconstructionError, ValidationError
from ..stats.histogram import DensityHistogram, HistogramGrid
from ..stats.ks import ks_against_grid_cdf, ks_statistic, ks_statistic_many
from ..stats.maxent import MaxEntDensity, maxent_from_moments
from ..stats.moments import MomentVector, moment_vector, nearest_feasible
from ..stats.pearson import PearsonDistribution, pearson_system

__all__ = [
    "ReconstructedDistribution",
    "DistributionRepresentation",
    "HistogramRepresentation",
    "PyMaxEntRepresentation",
    "PearsonRndRepresentation",
    "REPRESENTATIONS",
]


class ReconstructedDistribution(ABC):
    """A decoded distribution: sampleable and CDF-evaluable."""

    @abstractmethod
    def sample(self, n: int, rng=None) -> np.ndarray:
        """Draw *n* samples."""

    @abstractmethod
    def cdf(self, x) -> np.ndarray:
        """Evaluate the CDF at *x*."""

    def ks_against(self, measured_samples, *, rng=None, n_draws: int = 1000) -> float:
        """KS statistic between this reconstruction and measured samples.

        Uses the analytic CDF when available; subclasses that only exist
        as random draws (PearsonRnd's definition) override this.
        """
        x = as_sample_array(measured_samples, min_size=1)
        xs = np.sort(x)
        f = np.clip(self.cdf(xs), 0.0, 1.0)
        n = xs.size
        hi = np.arange(1, n + 1) / n
        lo = np.arange(0, n) / n
        return float(max(np.max(hi - f), np.max(f - lo)))


@dataclass(frozen=True)
class _HistogramReconstruction(ReconstructedDistribution):
    hist: DensityHistogram

    def sample(self, n: int, rng=None) -> np.ndarray:
        return self.hist.sample(n, rng=rng)

    def cdf(self, x) -> np.ndarray:
        return self.hist.cdf(x)


@dataclass(frozen=True)
class _MaxEntReconstruction(ReconstructedDistribution):
    density: MaxEntDensity

    def sample(self, n: int, rng=None) -> np.ndarray:
        return self.density.sample(n, rng=rng)

    def cdf(self, x) -> np.ndarray:
        return self.density.cdf(x)


@dataclass(frozen=True)
class _PearsonReconstruction(ReconstructedDistribution):
    """Pearson-system decode.

    Faithful to the paper's *PearsonRnd* procedure, :meth:`ks_against`
    draws a finite random sample (default 1,000 points, like the measured
    campaigns) and compares two-sample; pass ``exact=True`` fields via
    :class:`PearsonRndRepresentation` to use the analytic CDF instead.
    """

    dist: PearsonDistribution
    use_analytic_cdf: bool = False
    n_draws: int = 1000

    def sample(self, n: int, rng=None) -> np.ndarray:
        return self.dist.rvs(n, random_state=rng)

    def cdf(self, x) -> np.ndarray:
        return self.dist.cdf(x)

    def ks_against(self, measured_samples, *, rng=None, n_draws: int | None = None) -> float:
        if self.use_analytic_cdf:
            return super().ks_against(measured_samples)
        draws = self.sample(n_draws or self.n_draws, rng=check_random_state(rng))
        return ks_statistic(draws, measured_samples)


class DistributionRepresentation(ABC):
    """Encode/decode interface shared by the three representations."""

    #: Stable identifier used in experiment configs and reports.
    name: str

    @property
    def encoding_key(self) -> str:
        """Identity of the *encoding* (target construction), not the decode.

        Representations that share an encoding key produce bit-identical
        target matrices — and therefore bit-identical fitted models and
        predicted vectors — for the same training rows.  The evaluation
        engine uses this to share fold predictions across grid cells
        (e.g. the two four-moment representations differ only in how a
        predicted vector is decoded for scoring).
        """
        return self.name

    @property
    @abstractmethod
    def n_dims(self) -> int:
        """Length of the encoded vector."""

    @abstractmethod
    def encode(self, relative_samples) -> np.ndarray:
        """Relative-time samples -> target vector."""

    @abstractmethod
    def reconstruct(self, vector) -> ReconstructedDistribution:
        """Predicted vector -> distribution object."""

    def ks_score(
        self, vector, measured_relative_samples, *, rng=None
    ) -> float:
        """KS statistic of a predicted vector against measured samples."""
        recon = self.reconstruct(vector)
        return recon.ks_against(measured_relative_samples, rng=rng)

    def ks_score_many(
        self, vectors, measured_relative_samples, *, rngs
    ) -> list[float]:
        """KS statistics of several predicted vectors against one sample.

        ``rngs`` supplies one scoring RNG per vector.  Bit-identical to
        calling :meth:`ks_score` per ``(vector, rng)`` pair; sample-decoded
        representations override this to amortize sorting the measured
        sample across vectors (:func:`~repro.stats.ks.ks_statistic_many`).
        """
        return [
            float(self.ks_score(v, measured_relative_samples, rng=rng))
            for v, rng in zip(vectors, rngs)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_dims={self.n_dims})"


@dataclass(frozen=True)
class HistogramRepresentation(DistributionRepresentation):
    """Discretized-PDF representation on a shared relative-time grid."""

    grid: HistogramGrid = field(default_factory=HistogramGrid)
    name = "histogram"

    @property
    def encoding_key(self) -> str:
        g = self.grid
        return f"histogram:{g.low}:{g.high}:{g.n_bins}"

    @property
    def n_dims(self) -> int:
        return self.grid.n_bins

    def encode(self, relative_samples) -> np.ndarray:
        return self.grid.encode(relative_samples)

    def reconstruct(self, vector) -> ReconstructedDistribution:
        v = np.asarray(vector, dtype=np.float64).reshape(-1)
        if v.size != self.grid.n_bins:
            raise ValidationError(
                f"expected {self.grid.n_bins} bins, got {v.size}"
            )
        return _HistogramReconstruction(DensityHistogram(self.grid, v))


class _MomentRepresentationBase(DistributionRepresentation):
    """Shared encoding for the two four-moment representations."""

    @property
    def encoding_key(self) -> str:
        # PyMaxEnt and PearsonRnd encode identically (first four moments)
        # and differ only in reconstruction, so they share fold models.
        return "moments4"

    @property
    def n_dims(self) -> int:
        return 4

    def encode(self, relative_samples) -> np.ndarray:
        return moment_vector(relative_samples).as_array()

    @staticmethod
    def _feasible_vector(vector) -> tuple[float, float, float, float]:
        v = np.asarray(vector, dtype=np.float64).reshape(-1)
        if v.size != 4:
            raise ValidationError(f"expected 4 moments, got {v.size}")
        return nearest_feasible(v[0], max(v[1], 1e-9), v[2], v[3])


@dataclass(frozen=True)
class PyMaxEntRepresentation(_MomentRepresentationBase):
    """Four moments decoded by maximum-entropy reconstruction.

    Faithful to the cited PyMaxEnt package's behaviour, not to an
    idealized MaxEnt solver:

    * the Lagrange-multiplier solve is an **undamped** Newton iteration
      (PyMaxEnt drives ``scipy.optimize.fsolve`` with no step control) —
      it diverges on strongly non-Gaussian targets where a damped solver
      would succeed;
    * reconstruction happens on a **fixed absolute relative-time
      support** (PyMaxEnt requires explicit bounds), which is huge and
      asymmetric in sigma units for narrow or shifted distributions —
      the classic conditioning hazard of fixed bounds;
    * infeasible predicted moment vectors (``kurt < skew**2 + 1``,
      common for regression outputs) and failed solves degrade to a
      plain normal with the predicted mean/std, discarding shape.

    These failure modes are the mechanism behind PyMaxEnt's weaker KS
    scores in the paper; the Pearson decode, by contrast, handles every
    feasible moment vector and projects infeasible ones.
    """

    support: tuple[float, float] = (0.85, 1.45)
    name = "pymaxent"

    def reconstruct(self, vector) -> ReconstructedDistribution:
        v = np.asarray(vector, dtype=np.float64).reshape(-1)
        if v.size != 4:
            raise ValidationError(f"expected 4 moments, got {v.size}")
        mean, std, skew, kurt = (float(x) for x in v)
        std = max(std, 1e-9)
        try:
            density = maxent_from_moments(
                mean,
                std,
                skew,
                kurt,
                support=self.support,
                project=False,
                solver="pymaxent",
            )
            density.grid_cdf()  # junk multipliers can integrate to zero
            return _MaxEntReconstruction(density)
        except (ReconstructionError, ValidationError):
            # Degrade to the normal with the predicted location/scale.
            dist = pearson_system(mean, std, 0.0, 3.0)
            return _PearsonReconstruction(dist, use_analytic_cdf=True)


@dataclass(frozen=True)
class PearsonRndRepresentation(_MomentRepresentationBase):
    """Four moments decoded by sampling the Pearson system (``pearsrnd``)."""

    n_draws: int = 1000
    use_analytic_cdf: bool = False
    name = "pearsonrnd"

    def reconstruct(self, vector) -> ReconstructedDistribution:
        mean, std, skew, kurt = self._feasible_vector(vector)
        dist = pearson_system(mean, std, skew, kurt)
        return _PearsonReconstruction(
            dist, use_analytic_cdf=self.use_analytic_cdf, n_draws=self.n_draws
        )

    def ks_score_many(
        self, vectors, measured_relative_samples, *, rngs
    ) -> list[float]:
        """Batched scoring: decode each vector to its Pearson draw, then
        score the whole batch against one sorted copy of the measured
        sample.  Draw order and RNG consumption match :meth:`ks_score`
        exactly, so the scores are bit-identical to the sequential path."""
        if self.use_analytic_cdf:
            return super().ks_score_many(
                vectors, measured_relative_samples, rngs=rngs
            )
        draws = [
            self.reconstruct(v).sample(self.n_draws, rng=check_random_state(rng))
            for v, rng in zip(vectors, rngs)
        ]
        return [
            float(d)
            for d in ks_statistic_many(draws, measured_relative_samples)
        ]


#: Registry keyed by the names used throughout the experiment harness.
#: "quantile" is this library's extension (see
#: :mod:`repro.core.quantile_representation`), not one of the paper's
#: three representations.
REPRESENTATIONS: dict[str, type[DistributionRepresentation]] = {
    "histogram": HistogramRepresentation,
    "pymaxent": PyMaxEntRepresentation,
    "pearsonrnd": PearsonRndRepresentation,
}


def _register_extensions() -> None:
    from .quantile_representation import QuantileRepresentation

    REPRESENTATIONS["quantile"] = QuantileRepresentation


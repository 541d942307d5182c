"""Percentile-only probes: :class:`QuantileSketch` and the ``Probe`` union.

The paper's pipelines consume raw sample arrays — a thousand runtimes
and a counter matrix per campaign.  Production telemetry does not export
raw samples; it exports percentiles (p50/p95/p99 per metric, plus a run
count).  This module is the representation-layer bridge between the two:

* :class:`QuantileSketch` — a frozen, validated set of ``(level,
  value)`` pairs plus the run count they summarize.  Sketches merge
  (weighted mixture-CDF inversion), serialize to JSON-safe dicts, and —
  the substantive part — recover the moments and model features the
  predictors need, under an explicit, selectable distributional
  **assumption**:

  - ``"lognormal"`` — the percentile closed forms the fleet's
    :class:`~repro.serving.fleet.admission.KingmanAdmission` gate also
    uses (shared implementation in :mod:`repro.stats.lognormal`);
  - ``"pearson"`` — distribution-agnostic: moments are integrated from
    the piecewise-linear quantile reconstruction and projected into the
    Pearson-feasible region.

* :class:`SampleProbe` / :class:`SketchProbe` — the ``Probe`` union the
  predictors accept.  A ``SampleProbe`` wraps a
  :class:`~repro.data.dataset.RunCampaign` and reproduces the historical
  sample path bit for bit; a ``SketchProbe`` carries one runtime sketch
  plus one per-second-rate sketch per metric and synthesizes the same
  feature layout (:func:`~repro.core.features.profile_features` order)
  from percentiles alone.

Everything here is deterministic: no RNG is consumed anywhere on the
sketch path, so a sketch probe answered by the TCP server is bitwise
identical to the direct in-process call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import registry
from .._validation import as_float_array, as_sample_array, check_positive_int
from ..data.dataset import RunCampaign
from ..errors import ValidationError
from ..registry import ASSUMPTIONS
from ..stats.lognormal import fit_lognormal, lognormal_cdf, lognormal_moments
from ..stats.moments import MomentVector, nearest_feasible
from .features import FeatureConfig, profile_features
from .quantile_representation import _QuantileReconstruction
from .representations import (
    DistributionRepresentation,
    HistogramRepresentation,
    ReconstructedDistribution,
)

__all__ = [
    "DEFAULT_SKETCH_LEVELS",
    "DEFAULT_ASSUMPTION",
    "ASSUMPTIONS",
    "QuantileSketch",
    "SampleProbe",
    "SketchProbe",
    "SketchProbeSpec",
    "Probe",
    "as_probe",
    "encode_from_sketch",
]

#: Percentile levels production telemetry typically exports (and the
#: levels the percentile-only evaluation uses): p50/p90/p95/p99.
DEFAULT_SKETCH_LEVELS: tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)

#: Assumption applied when neither the probe nor the consumer pins one.
DEFAULT_ASSUMPTION = "lognormal"

#: Tolerance used when matching user-supplied levels (plain ``==`` on
#: floats would be fragile; levels are nominal constants like 0.99).
_LEVEL_TOL = 1e-9


def _piecewise_linear_moments(levels: np.ndarray, values: np.ndarray) -> MomentVector:
    """Moments of the piecewise-linear quantile reconstruction.

    The distribution is defined by the quantile function that linearly
    interpolates ``(levels, values)`` and is constant beyond the first
    and last level (the same reconstruction
    :class:`~repro.core.quantile_representation.QuantileRepresentation`
    decodes to).  Raw moments ``E[Y^k] = ∫₀¹ (Q(u) - Q(0))^k du`` of the
    values shifted to start at zero integrate in closed form per segment,
    so no draws and no RNG are involved.  The shift keeps a tight sketch
    far from zero from losing its spread to cancellation when the
    central moments are formed.
    """
    u = np.concatenate([[0.0], levels, [1.0]])
    v = np.concatenate([[values[0]], values, [values[-1]]]) - values[0]
    du = np.diff(u)
    v0, v1 = v[:-1], v[1:]
    raw = np.zeros(4, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for k in range(1, 5):
            # ∫ of a linear segment raised to k, written without dividing
            # by its rise so flat segments need no special case.
            seg = sum(v0**j * v1 ** (k - j) for j in range(k + 1)) / (k + 1) * du
            raw[k - 1] = float(seg.sum())
    if not np.isfinite(raw).all():
        raise ValidationError(
            "sketch values spread too far for moment recovery: their "
            "fourth powers overflow float64"
        )
    e1, e2, e3, e4 = raw
    mean = float(values[0] + e1)
    m2 = e2 - e1 * e1
    m3 = e3 - 3.0 * e1 * e2 + 2.0 * e1**3
    m4 = e4 - 4.0 * e1 * e3 + 6.0 * e1 * e1 * e2 - 3.0 * e1**4
    if m2 <= 0.0:
        return MomentVector(mean, 0.0, 0.0, 3.0)
    std = float(np.sqrt(m2))
    with np.errstate(divide="ignore", invalid="ignore"):
        # A spread so tight that m2**1.5 underflows gives 0/0 here; the
        # projection maps a non-finite skew or kurtosis to the normal's.
        skew = float(m3 / m2**1.5)
        kurt = float(m4 / (m2 * m2))
    return MomentVector(*nearest_feasible(mean, std, skew, kurt))


@dataclass(frozen=True)
class _LogNormalReconstruction(ReconstructedDistribution):
    """Lognormal decode of a sketch (analytic CDF, seeded sampling)."""

    mu: float
    sigma: float

    def sample(self, n: int, rng=None) -> np.ndarray:
        from .._validation import check_random_state

        gen = check_random_state(rng)
        return np.exp(self.mu + self.sigma * gen.standard_normal(n))

    def cdf(self, x) -> np.ndarray:
        return lognormal_cdf(x, self.mu, self.sigma)


@dataclass(frozen=True)
class QuantileSketch:
    """A validated percentile summary: (level, value) pairs + run count.

    Attributes
    ----------
    levels:
        Quantile levels, strictly increasing, each inside ``(0, 1)``.
    values:
        Quantile values at those levels — finite, strictly positive
        (runtimes and counter rates are positive quantities), and
        monotone non-decreasing.
    n_runs:
        Number of underlying runs the percentiles summarize (merge
        weights and pseudo-sample counts derive from it).
    """

    levels: np.ndarray
    values: np.ndarray
    n_runs: int

    def __post_init__(self) -> None:
        """Validate monotonicity/positivity; normalizes fields to arrays."""
        lv = as_float_array(self.levels, name="levels", allow_empty=False)
        vals = as_float_array(self.values, name="values", allow_empty=False)
        lv = np.atleast_1d(lv)
        vals = np.atleast_1d(vals)
        if lv.ndim != 1 or vals.ndim != 1 or lv.shape != vals.shape:
            raise ValidationError(
                f"levels and values must be matching 1-D arrays, got "
                f"shapes {lv.shape} and {vals.shape}"
            )
        if lv.size < 2:
            raise ValidationError("a sketch needs at least two levels")
        if np.any((lv <= 0.0) | (lv >= 1.0)):
            raise ValidationError("levels must lie strictly inside (0, 1)")
        if np.any(np.diff(lv) <= 0.0):
            raise ValidationError("levels must be strictly increasing")
        if np.any(vals <= 0.0):
            raise ValidationError("sketch values must be strictly positive")
        if np.any(np.diff(vals) < 0.0):
            raise ValidationError(
                "sketch values must be monotone non-decreasing in level"
            )
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "values", vals)
        check_positive_int(self.n_runs, name="n_runs")

    @classmethod
    def from_samples(
        cls, samples, levels: tuple[float, ...] = DEFAULT_SKETCH_LEVELS
    ) -> "QuantileSketch":
        """Summarize a raw sample array at the given levels."""
        x = as_sample_array(samples, min_size=1)
        lv = np.asarray(levels, dtype=np.float64)
        return cls(levels=lv, values=np.quantile(x, lv), n_runs=int(x.size))

    @property
    def n_levels(self) -> int:
        """Number of (level, value) pairs."""
        return int(self.levels.size)

    def quantile(self, q) -> np.ndarray:
        """Interpolated quantile value(s) at probability *q* (clamped)."""
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        return np.interp(qs, self.levels, self.values)

    def value_at(self, level: float) -> float:
        """Value at one level — exact when the level is in the sketch."""
        hits = np.flatnonzero(np.abs(self.levels - level) < _LEVEL_TOL)
        if hits.size:
            return float(self.values[hits[0]])
        return float(self.quantile(level)[0])

    def scaled(self, factor: float) -> "QuantileSketch":
        """Sketch of the variable multiplied by a positive constant."""
        if not factor > 0.0:
            raise ValidationError(f"scale factor must be > 0, got {factor}")
        return QuantileSketch(self.levels, self.values * factor, self.n_runs)

    def _padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Quantile function padded to the full unit interval."""
        levels = np.concatenate([[0.0], self.levels, [1.0]])
        values = np.concatenate(
            [[self.values[0]], self.values, [self.values[-1]]]
        )
        return levels, values

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Combine two sketches over the same levels (mixture semantics).

        The merged sketch summarizes the pooled run set: its CDF is the
        run-count-weighted mixture of the two piecewise-linear CDFs,
        inverted back at the common levels.  Deterministic, exact for
        identical inputs, and commutative bit for bit (the mixture
        ``(n1·F1 + n2·F2)/(n1 + n2)`` is symmetric in floating point).
        Not associative: the result keeps only its levels' values, so
        a further merge interpolates between them.
        """
        if not isinstance(other, QuantileSketch):
            raise ValidationError(
                f"can only merge QuantileSketch, got {type(other).__name__}"
            )
        if self.levels.shape != other.levels.shape or np.any(
            np.abs(self.levels - other.levels) > _LEVEL_TOL
        ):
            raise ValidationError(
                "sketch merge requires identical level sets; resample one "
                "side first"
            )
        grid = np.union1d(self.values, other.values)
        f1 = np.interp(grid, self.values, self.levels, left=0.0, right=1.0)
        f2 = np.interp(grid, other.values, other.levels, left=0.0, right=1.0)
        mix = (self.n_runs * f1 + other.n_runs * f2) / (self.n_runs + other.n_runs)
        # Invert the mixture CDF at the common levels; accumulate keeps
        # the result monotone through interpolation ties.  A mixture's
        # quantile lies between its components' quantiles; the clip
        # holds that against the mixture weights' rounding (and keeps
        # identical inputs exact).
        merged = np.maximum.accumulate(np.interp(self.levels, mix, grid))
        merged = np.clip(
            merged,
            np.minimum(self.values, other.values),
            np.maximum(self.values, other.values),
        )
        return QuantileSketch(self.levels, merged, self.n_runs + other.n_runs)

    def lognormal_fit(self) -> tuple[float, float]:
        """``(mu, sigma)`` of the lognormal pinned by this sketch.

        Uses the exact p50/p99 closed form when both levels are present,
        else a least-squares fit through all levels.
        """
        return fit_lognormal(self.levels, self.values)

    def moments(self, assumption: str = DEFAULT_ASSUMPTION) -> MomentVector:
        """First four moments recovered under *assumption*."""
        kind = registry.assumption(assumption)
        if kind == "lognormal":
            mu, sigma = self.lognormal_fit()
            return lognormal_moments(mu, sigma)
        return _piecewise_linear_moments(self.levels, self.values)

    def log_moments(self, assumption: str = DEFAULT_ASSUMPTION) -> MomentVector:
        """Moments of the *logarithm* of the sketched variable.

        Quantiles commute with monotone maps, so the sketch of ``log X``
        is just ``log`` of this sketch's values.  Under the lognormal
        assumption ``log X`` is exactly normal: ``(mu, sigma, 0, 3)``.
        """
        kind = registry.assumption(assumption)
        if kind == "lognormal":
            mu, sigma = self.lognormal_fit()
            return MomentVector(mu, sigma, 0.0, 3.0)
        log_values = np.log(self.values)
        # The piecewise-linear integrator assumes nothing about sign, so
        # it applies directly to the log-transformed quantile function.
        return _piecewise_linear_moments(self.levels, log_values)

    def reconstruct(
        self, assumption: str = DEFAULT_ASSUMPTION
    ) -> ReconstructedDistribution:
        """Decoded distribution (sampleable, CDF-evaluable)."""
        kind = registry.assumption(assumption)
        if kind == "lognormal":
            mu, sigma = self.lognormal_fit()
            return _LogNormalReconstruction(mu, sigma)
        levels, values = self._padded()
        return _QuantileReconstruction(levels=levels, values=values)

    def pseudo_samples(
        self, n: int | None = None, assumption: str = DEFAULT_ASSUMPTION
    ) -> np.ndarray:
        """Deterministic inverse-CDF draws (midpoint stratification).

        The fallback encoding path for representations without a direct
        sketch formula: *n* (default ``n_runs``) evenly stratified
        quantiles of the reconstruction.  No RNG is consumed.
        """
        count = self.n_runs if n is None else check_positive_int(n, name="n")
        u = (np.arange(count, dtype=np.float64) + 0.5) / count
        kind = registry.assumption(assumption)
        if kind == "lognormal":
            from ..stats.lognormal import lognormal_quantile

            mu, sigma = self.lognormal_fit()
            return lognormal_quantile(u, mu, sigma)
        levels, values = self._padded()
        return np.interp(u, levels, values)


@dataclass(frozen=True)
class SampleProbe:
    """A probe backed by raw samples — the historical input, wrapped.

    Every code path through a ``SampleProbe`` calls exactly the
    functions the raw-campaign path called
    (:func:`~repro.core.features.profile_features`,
    ``representation.encode(campaign.relative_times())``), so wrapping a
    campaign changes no output bit.
    """

    campaign: RunCampaign

    def __post_init__(self) -> None:
        """Reject non-campaign payloads early with a clear message."""
        if not isinstance(self.campaign, RunCampaign):
            raise ValidationError(
                f"SampleProbe wraps a RunCampaign, got "
                f"{type(self.campaign).__name__}"
            )

    @property
    def kind(self) -> str:
        """Wire discriminator: ``"samples"``."""
        return "samples"

    @property
    def benchmark(self) -> str:
        """Benchmark name of the underlying campaign."""
        return self.campaign.benchmark

    @property
    def system(self) -> str:
        """System name of the underlying campaign."""
        return self.campaign.system

    def features(
        self,
        config: FeatureConfig | None = None,
        *,
        assumption: str | None = None,
    ) -> np.ndarray:
        """Profile features; *assumption* is ignored (samples need none)."""
        return profile_features(self.campaign, config)

    def encode_distribution(
        self,
        representation: DistributionRepresentation,
        *,
        assumption: str | None = None,
    ) -> np.ndarray:
        """Encoded relative-time distribution of the campaign."""
        return representation.encode(self.campaign.relative_times())


@dataclass(frozen=True)
class SketchProbe:
    """A percentile-only probe: runtime + per-metric rate sketches.

    Attributes
    ----------
    benchmark / system:
        Identity of the summarized campaign.
    runtime_sketch:
        Sketch of absolute runtimes in seconds.
    rate_sketches:
        One sketch per metric of the per-second counter rates, in
        ``metric_names`` order.
    metric_names:
        Column labels matching ``rate_sketches``.
    assumption:
        Moment-recovery assumption pinned by the probe's producer, or
        ``None`` to defer to the consumer (predictor/config default).
    """

    benchmark: str
    system: str
    runtime_sketch: QuantileSketch
    rate_sketches: tuple[QuantileSketch, ...]
    metric_names: tuple[str, ...]
    assumption: str | None = None

    def __post_init__(self) -> None:
        """Validate shapes and the optional assumption tag."""
        if not isinstance(self.benchmark, str) or not isinstance(self.system, str):
            raise ValidationError("probe benchmark/system must be strings")
        if not isinstance(self.runtime_sketch, QuantileSketch):
            raise ValidationError("runtime_sketch must be a QuantileSketch")
        object.__setattr__(self, "rate_sketches", tuple(self.rate_sketches))
        object.__setattr__(self, "metric_names", tuple(self.metric_names))
        if len(self.rate_sketches) != len(self.metric_names):
            raise ValidationError(
                f"{len(self.rate_sketches)} rate sketches for "
                f"{len(self.metric_names)} metric names"
            )
        for sk in self.rate_sketches:
            if not isinstance(sk, QuantileSketch):
                raise ValidationError("rate_sketches must hold QuantileSketch")
        if self.assumption is not None:
            object.__setattr__(
                self, "assumption", registry.assumption(self.assumption)
            )

    @property
    def kind(self) -> str:
        """Wire discriminator: ``"sketch"``."""
        return "sketch"

    @classmethod
    def from_campaign(
        cls,
        campaign: RunCampaign,
        *,
        levels: tuple[float, ...] = DEFAULT_SKETCH_LEVELS,
        assumption: str | None = None,
    ) -> "SketchProbe":
        """Summarize a measured campaign down to percentiles.

        This is what a telemetry exporter would do fleet-side; the
        evaluation uses it to simulate percentile-only ingestion from
        full measured campaigns.
        """
        rates = campaign.rates()
        return cls(
            benchmark=campaign.benchmark,
            system=campaign.system,
            runtime_sketch=QuantileSketch.from_samples(campaign.runtimes, levels),
            rate_sketches=tuple(
                QuantileSketch.from_samples(rates[:, j], levels)
                for j in range(rates.shape[1])
            ),
            metric_names=campaign.metric_names,
            assumption=assumption,
        )

    def resolve_assumption(self, default: str | None = None) -> str:
        """The probe's assumption, else *default*, else ``"lognormal"``."""
        if self.assumption is not None:
            return self.assumption
        if default is not None:
            return registry.assumption(default)
        return DEFAULT_ASSUMPTION

    def features(
        self,
        config: FeatureConfig | None = None,
        *,
        assumption: str | None = None,
    ) -> np.ndarray:
        """Recovered profile features, matching the sample-path layout.

        Per metric, the (mean, std, skew, kurt) of the per-second rate —
        of the *log* rate when the config says so, recovered through the
        resolved assumption — flattened metric-major exactly like
        :func:`~repro.core.features.profile_features`.
        """
        cfg = config or FeatureConfig()
        kind = self.resolve_assumption(assumption)
        rows = []
        for sk in self.rate_sketches:
            mv = sk.log_moments(kind) if cfg.log_rates else sk.moments(kind)
            rows.append(mv.as_array()[: cfg.n_moments])
        return np.concatenate(rows) if rows else np.empty(0, dtype=np.float64)

    def relative_runtime_sketch(
        self, assumption: str | None = None
    ) -> QuantileSketch:
        """Runtime sketch rescaled to mean 1 (the paper's relative time).

        The mean is recovered under the resolved assumption — the only
        way to normalize when only percentiles are known.
        """
        kind = self.resolve_assumption(assumption)
        mean = self.runtime_sketch.moments(kind).mean
        return self.runtime_sketch.scaled(1.0 / mean)

    def encode_distribution(
        self,
        representation: DistributionRepresentation,
        *,
        assumption: str | None = None,
    ) -> np.ndarray:
        """Encoded relative-time distribution recovered from the sketch."""
        kind = self.resolve_assumption(assumption)
        return encode_from_sketch(
            representation, self.relative_runtime_sketch(kind), kind
        )


#: The unified predictor input: raw samples or percentile summaries.
Probe = SampleProbe | SketchProbe


@dataclass(frozen=True)
class SketchProbeSpec:
    """How the evaluation derives sketch probes from measured campaigns.

    A tiny value object threaded through
    :class:`~repro.core.config.EvalConfig` into the engine designs: the
    levels to summarize at and the assumption to recover under.  Its
    :attr:`key` namespaces the engine's fold-vector memo so sketch-probe
    and sample-probe predictions never share a cache entry.
    """

    levels: tuple[float, ...] = DEFAULT_SKETCH_LEVELS
    assumption: str = DEFAULT_ASSUMPTION

    def __post_init__(self) -> None:
        """Validate levels/assumption eagerly (specs live in configs)."""
        object.__setattr__(self, "levels", tuple(float(x) for x in self.levels))
        lv = np.asarray(self.levels, dtype=np.float64)
        if lv.size < 2:
            raise ValidationError("sketch_levels needs at least two levels")
        if np.any((lv <= 0.0) | (lv >= 1.0)) or np.any(np.diff(lv) <= 0.0):
            raise ValidationError(
                "sketch_levels must be strictly increasing inside (0, 1)"
            )
        object.__setattr__(self, "assumption", registry.assumption(self.assumption))

    @property
    def key(self) -> str:
        """Stable memo-key component for the engine caches."""
        lv = ",".join(repr(x) for x in self.levels)
        return f"sketch:{self.assumption}:{lv}"

    def probe_from_campaign(self, campaign: RunCampaign) -> SketchProbe:
        """Summarize one campaign per this spec."""
        return SketchProbe.from_campaign(
            campaign, levels=self.levels, assumption=self.assumption
        )


def as_probe(obj) -> Probe:
    """Coerce predictor input into the ``Probe`` union.

    A :class:`~repro.data.dataset.RunCampaign` becomes a
    :class:`SampleProbe` (the historical path, bit-identical); probes
    pass through; anything else is a validation error.
    """
    if isinstance(obj, (SampleProbe, SketchProbe)):
        return obj
    if isinstance(obj, RunCampaign):
        return SampleProbe(obj)
    raise ValidationError(
        f"expected a RunCampaign, SampleProbe, or SketchProbe, got "
        f"{type(obj).__name__}"
    )


def encode_from_sketch(
    representation: DistributionRepresentation,
    sketch: QuantileSketch,
    assumption: str = DEFAULT_ASSUMPTION,
) -> np.ndarray:
    """Encode a (relative-time) sketch into a representation's vector.

    Per representation family:

    * four-moment encodings (``encoding_key == "moments4"``) take the
      recovered :meth:`QuantileSketch.moments` directly;
    * quantile encodings interpolate the sketch's quantile function at
      the representation's own levels;
    * histograms integrate the reconstruction's CDF over the grid (with
      the grid's clip-into-boundary-bins semantics);
    * anything else encodes deterministic
      :meth:`~QuantileSketch.pseudo_samples` — exact for none, defined
      for all.
    """
    kind = registry.assumption(assumption)
    if representation.encoding_key == "moments4":
        return sketch.moments(kind).as_array()
    from .quantile_representation import QuantileRepresentation

    if isinstance(representation, QuantileRepresentation):
        return sketch.quantile(representation.levels)
    if isinstance(representation, HistogramRepresentation):
        grid = representation.grid
        edges = grid.edges
        cdf = np.clip(sketch.reconstruct(kind).cdf(edges), 0.0, 1.0)
        probs = np.diff(cdf)
        # Mass outside the grid is clipped into the boundary bins, the
        # same convention HistogramGrid.encode applies to raw samples.
        probs[0] += cdf[0]
        probs[-1] += 1.0 - cdf[-1]
        return probs / grid.width
    return representation.encode(sketch.pseudo_samples(assumption=kind))

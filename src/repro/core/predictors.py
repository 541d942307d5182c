"""The two prediction pipelines (paper Section III-A).

* :class:`FewRunsPredictor` — use case 1: a system-specific model mapping
  the profile of a few runs to the full relative-time distribution on the
  same system.
* :class:`CrossSystemPredictor` — use case 2: a system-to-system model
  mapping the profile **and measured distribution** on system A to the
  distribution on system B.

Both pipelines:

* build training rows from measured campaigns (multiple resampled few-run
  probes per benchmark for use case 1, so the model sees realistic probe
  noise);
* scale features (robust scaling — counters are heavy-tailed);
* train any :class:`repro.ml.base.Regressor`;
* decode predictions through a
  :class:`~repro.core.representations.DistributionRepresentation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.dataset import RunCampaign
from ..errors import NotFittedError, ValidationError
from ..ml.base import Regressor
from ..ml.knn import KNNRegressor
from ..ml.scaling import RobustScaler
from .features import FeatureConfig
from .representations import (
    DistributionRepresentation,
    PearsonRndRepresentation,
    ReconstructedDistribution,
)
from .sketch import as_probe

__all__ = [
    "FewRunsPredictor",
    "CrossSystemPredictor",
    "build_few_runs_rows",
    "build_cross_system_rows",
]

_PROBE_SEED = 909090


def _check_parts(owner: str, model, representation) -> None:
    """Reject a model or representation that is not an instance.

    Registry names (``"knn"``, ``"histogram"``) resolve through
    :class:`~repro.core.config.PredictConfig`; the constructors take
    instances only, so a name fails here rather than deep inside ``fit``.
    """
    for what, value, kind in (
        ("model", model, Regressor),
        ("representation", representation, DistributionRepresentation),
    ):
        if not isinstance(value, kind):
            raise ValidationError(
                f"{owner} {what} must be a {kind.__name__} instance, got "
                f"{value!r}; build from registry names with "
                f"{owner}.from_config(PredictConfig(...))"
            )


def build_few_runs_rows(
    campaigns: dict[str, RunCampaign],
    representation: DistributionRepresentation,
    *,
    n_probe_runs: int = 10,
    n_replicas: int = 8,
    feature_config: FeatureConfig | None = None,
    seed: int = _PROBE_SEED,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Training rows for use case 1.

    For every benchmark campaign, draw ``n_replicas`` independent
    ``n_probe_runs``-run probes; each contributes one row whose features
    are the probe's profile and whose target is the representation of the
    **full** measured relative-time distribution.

    Returns (X, Y, groups) where groups holds the benchmark name per row —
    the unit the leave-one-group-out protocol holds out.
    """
    from .engine import FewRunsDesign

    design = FewRunsDesign(
        campaigns,
        n_probe_runs=n_probe_runs,
        n_replicas=n_replicas,
        feature_config=feature_config,
        seed=seed,
    )
    return design.rows(representation)


def build_cross_system_rows(
    source: dict[str, RunCampaign],
    target: dict[str, RunCampaign],
    representation: DistributionRepresentation,
    *,
    n_replicas: int = 4,
    replica_fraction: float = 0.5,
    feature_config: FeatureConfig | None = None,
    seed: int = _PROBE_SEED,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Training rows for use case 2.

    Features: the full-campaign profile on the source system concatenated
    with the encoded source distribution.  Target: the encoded
    distribution on the target system.  ``n_replicas`` bootstrap
    half-campaign replicas per benchmark augment the training set (probe
    noise regularization); the first replica of each benchmark uses the
    complete campaign.
    """
    from .engine import CrossSystemDesign

    design = CrossSystemDesign(
        source,
        target,
        n_replicas=n_replicas,
        replica_fraction=replica_fraction,
        feature_config=feature_config,
        seed=seed,
    )
    return design.rows(representation)


@dataclass
class FewRunsPredictor:
    """Use case 1: predict a distribution from a few same-system runs.

    Example
    -------
    >>> from repro.simbench import measure_all
    >>> campaigns = measure_all("intel", n_runs=200)      # doctest: +SKIP
    >>> pred = FewRunsPredictor().fit(campaigns)          # doctest: +SKIP
    >>> probe = campaigns["npb/cg"].subset(range(10))     # doctest: +SKIP
    >>> dist = pred.predict_distribution(probe)           # doctest: +SKIP
    >>> dist.sample(1000).std()                           # doctest: +SKIP
    """

    model: Regressor = field(default_factory=lambda: KNNRegressor(15, metric="cosine"))
    representation: DistributionRepresentation = field(
        default_factory=PearsonRndRepresentation
    )
    n_probe_runs: int = 10
    n_replicas: int = 8
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)
    seed: int = _PROBE_SEED
    assumption: str = "lognormal"

    def __post_init__(self) -> None:
        """Reject registry names passed where instances belong."""
        _check_parts(type(self).__name__, self.model, self.representation)

    @classmethod
    def from_config(cls, config) -> "FewRunsPredictor":
        """Build a predictor from a :class:`~repro.core.config.PredictConfig`.

        The v2 construction path: registry names in the config are
        resolved to fresh instances, ``n_replicas=None`` picks this use
        case's default (8).
        """
        return cls(
            model=config.resolve_model(),
            representation=config.resolve_representation(),
            n_probe_runs=config.n_probe_runs,
            n_replicas=config.replicas(8),
            feature_config=config.feature_config or FeatureConfig(),
            seed=config.seed,
            assumption=getattr(config, "assumption", "lognormal"),
        )

    def to_bytes(self) -> bytes:
        """Versioned wire form (see :mod:`repro.serving.serialization`)."""
        from ..serving.serialization import to_bytes

        return to_bytes(self)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FewRunsPredictor":
        """Inverse of :meth:`to_bytes`, with load-time schema checking."""
        from ..serving.serialization import from_bytes

        return from_bytes(blob, expect=cls)

    def fit(self, campaigns: dict[str, RunCampaign], *, exclude: tuple[str, ...] = ()) -> "FewRunsPredictor":
        """Train on measured campaigns (optionally excluding benchmarks).

        ``exclude`` implements the leave-one-group-out protocol: the
        benchmark under evaluation must not contribute training rows.
        """
        train = {k: v for k, v in campaigns.items() if k not in set(exclude)}
        if not train:
            raise ValidationError("no campaigns left to train on")
        X, Y, groups = build_few_runs_rows(
            train,
            self.representation,
            n_probe_runs=self.n_probe_runs,
            n_replicas=self.n_replicas,
            feature_config=self.feature_config,
            seed=self.seed,
        )
        self.scaler_ = RobustScaler().fit(X)
        self.model_ = self.model.clone().fit(self.scaler_.transform(X), Y)
        self.groups_ = groups
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "model_"):
            raise NotFittedError("FewRunsPredictor.fit has not been called")

    def predict_vector(self, probe) -> np.ndarray:
        """Predicted representation vector for a probe.

        *probe* is any :data:`~repro.core.sketch.Probe` input: a raw
        :class:`~repro.data.dataset.RunCampaign` (or
        :class:`~repro.core.sketch.SampleProbe`) goes through the
        historical sample path bit for bit; a percentile-only
        :class:`~repro.core.sketch.SketchProbe` recovers the same
        features under this predictor's ``assumption``.
        """
        self._check_fitted()
        x = as_probe(probe).features(
            self.feature_config,
            assumption=getattr(self, "assumption", "lognormal"),
        )[None, :]
        return self.model_.predict(self.scaler_.transform(x))[0]

    def predict_distribution(self, probe) -> ReconstructedDistribution:
        """Predicted relative-time distribution for a probe."""
        return self.representation.reconstruct(self.predict_vector(probe))


@dataclass
class CrossSystemPredictor:
    """Use case 2: predict a distribution on a new system.

    Trained from benchmarks measured on both systems; at prediction time
    only the source-system campaign of the new application is needed.
    """

    model: Regressor = field(default_factory=lambda: KNNRegressor(15, metric="cosine"))
    representation: DistributionRepresentation = field(
        default_factory=PearsonRndRepresentation
    )
    n_replicas: int = 4
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)
    seed: int = _PROBE_SEED
    assumption: str = "lognormal"

    def __post_init__(self) -> None:
        """Reject registry names passed where instances belong."""
        _check_parts(type(self).__name__, self.model, self.representation)

    @classmethod
    def from_config(cls, config) -> "CrossSystemPredictor":
        """Build a predictor from a :class:`~repro.core.config.PredictConfig`.

        ``n_replicas=None`` picks this use case's default (4).
        """
        return cls(
            model=config.resolve_model(),
            representation=config.resolve_representation(),
            n_replicas=config.replicas(4),
            feature_config=config.feature_config or FeatureConfig(),
            seed=config.seed,
            assumption=getattr(config, "assumption", "lognormal"),
        )

    def to_bytes(self) -> bytes:
        """Versioned wire form (see :mod:`repro.serving.serialization`)."""
        from ..serving.serialization import to_bytes

        return to_bytes(self)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CrossSystemPredictor":
        """Inverse of :meth:`to_bytes`, with load-time schema checking."""
        from ..serving.serialization import from_bytes

        return from_bytes(blob, expect=cls)

    def fit(
        self,
        source: dict[str, RunCampaign],
        target: dict[str, RunCampaign],
        *,
        exclude: tuple[str, ...] = (),
    ) -> "CrossSystemPredictor":
        """Train the system-to-system mapping."""
        excl = set(exclude)
        src = {k: v for k, v in source.items() if k not in excl}
        dst = {k: v for k, v in target.items() if k not in excl}
        X, Y, groups = build_cross_system_rows(
            src,
            dst,
            self.representation,
            n_replicas=self.n_replicas,
            feature_config=self.feature_config,
            seed=self.seed,
        )
        self.scaler_ = RobustScaler().fit(X)
        self.model_ = self.model.clone().fit(self.scaler_.transform(X), Y)
        self.groups_ = groups
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "model_"):
            raise NotFittedError("CrossSystemPredictor.fit has not been called")

    def predict_vector(self, probe) -> np.ndarray:
        """Predicted target-system representation vector.

        *probe* is any :data:`~repro.core.sketch.Probe` input measured on
        the **source** system; sketch probes recover both the profile
        features and the encoded source distribution from percentiles.
        """
        self._check_fitted()
        assumption = getattr(self, "assumption", "lognormal")
        p = as_probe(probe)
        x = np.concatenate(
            [
                p.features(self.feature_config, assumption=assumption),
                p.encode_distribution(self.representation, assumption=assumption),
            ]
        )[None, :]
        return self.model_.predict(self.scaler_.transform(x))[0]

    def predict_distribution(self, probe) -> ReconstructedDistribution:
        """Predicted relative-time distribution on the target system."""
        return self.representation.reconstruct(self.predict_vector(probe))

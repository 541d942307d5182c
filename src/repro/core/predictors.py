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
from .config import DEFAULT_PROBE_SEED
from .features import FeatureConfig
from .representations import (
    DistributionRepresentation,
    PearsonRndRepresentation,
    ReconstructedDistribution,
)
from .sketch import as_probe

__all__ = ["FewRunsPredictor", "CrossSystemPredictor"]


class _Predictor:
    """What both pipelines share: checks, persistence, fit tail, predict path.

    A predictor adds its fields, ``from_config``, a ``fit`` that builds
    its use case's design and hands it to :meth:`_fit_design`, and
    ``_probe_row(probe, assumption)``, the feature row it predicts from.
    Predicting needs no design, so ``fit`` imports it and this module
    does not import the engine.
    """

    def __post_init__(self) -> None:
        """Reject registry names passed where instances belong.

        Registry names (``"knn"``, ``"histogram"``) resolve through
        :class:`~repro.core.config.PredictConfig`; the constructors take
        instances only, so a name fails here rather than deep inside
        ``fit``.
        """
        owner = type(self).__name__
        for what, value, kind in (
            ("model", self.model, Regressor),
            ("representation", self.representation, DistributionRepresentation),
        ):
            if not isinstance(value, kind):
                raise ValidationError(
                    f"{owner} {what} must be a {kind.__name__} instance, got "
                    f"{value!r}; build from registry names with "
                    f"{owner}.from_config(PredictConfig(...))"
                )

    def to_bytes(self) -> bytes:
        """Versioned wire form (see :mod:`repro.serving.serialization`)."""
        from ..serving.serialization import to_bytes

        return to_bytes(self)

    @classmethod
    def from_bytes(cls, blob: bytes):
        """Inverse of :meth:`to_bytes`, with load-time schema checking."""
        from ..serving.serialization import from_bytes

        return from_bytes(blob, expect=cls)

    def _fit_design(self, design):
        """Robust-scale the design's rows and fit a clone of the model."""
        X, Y, groups = design.rows(self.representation)
        self.scaler_ = RobustScaler().fit(X)
        self.model_ = self.model.clone().fit(self.scaler_.transform(X), Y)
        self.groups_ = groups
        return self

    def predict_vector(self, probe) -> np.ndarray:
        """Predicted representation vector for a probe.

        *probe* is any :data:`~repro.core.sketch.Probe` input: a raw
        :class:`~repro.data.dataset.RunCampaign` (or
        :class:`~repro.core.sketch.SampleProbe`) goes through the
        historical sample path bit for bit; a percentile-only
        :class:`~repro.core.sketch.SketchProbe` recovers the same row
        under this predictor's ``assumption``.
        """
        if not hasattr(self, "model_"):
            raise NotFittedError(f"{type(self).__name__}.fit has not been called")
        x = self._probe_row(
            as_probe(probe), getattr(self, "assumption", "lognormal")
        )[None, :]
        return self.model_.predict(self.scaler_.transform(x))[0]

    def predict_distribution(self, probe) -> ReconstructedDistribution:
        """Predicted relative-time distribution for a probe."""
        return self.representation.reconstruct(self.predict_vector(probe))


@dataclass
class FewRunsPredictor(_Predictor):
    """Use case 1: predict a distribution from a few same-system runs.

    Training rows: for every benchmark campaign, ``n_replicas``
    independent ``n_probe_runs``-run probes, each profiled into one row
    whose target is the representation of the **full** measured
    relative-time distribution.

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
    seed: int = DEFAULT_PROBE_SEED
    assumption: str = "lognormal"

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

    def fit(self, campaigns: dict[str, RunCampaign], *, exclude: tuple[str, ...] = ()) -> "FewRunsPredictor":
        """Train on measured campaigns (optionally excluding benchmarks).

        ``exclude`` implements the leave-one-group-out protocol: the
        benchmark under evaluation must not contribute training rows.
        """
        from .engine import FewRunsDesign

        train = {k: v for k, v in campaigns.items() if k not in set(exclude)}
        if not train:
            raise ValidationError("no campaigns left to train on")
        return self._fit_design(
            FewRunsDesign(
                train,
                n_probe_runs=self.n_probe_runs,
                n_replicas=self.n_replicas,
                feature_config=self.feature_config,
                seed=self.seed,
            )
        )

    def _probe_row(self, probe, assumption: str) -> np.ndarray:
        return probe.features(self.feature_config, assumption=assumption)


@dataclass
class CrossSystemPredictor(_Predictor):
    """Use case 2: predict a distribution on a new system.

    Trained from benchmarks measured on both systems; at prediction time
    only the source-system campaign of the new application is needed.
    Features: the profile on the source system concatenated with the
    encoded source distribution; target: the encoded distribution on the
    target system.  ``n_replicas`` bootstrap half-campaign replicas per
    benchmark augment the training set, the first of each being the
    complete campaign.
    """

    model: Regressor = field(default_factory=lambda: KNNRegressor(15, metric="cosine"))
    representation: DistributionRepresentation = field(
        default_factory=PearsonRndRepresentation
    )
    n_replicas: int = 4
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)
    seed: int = DEFAULT_PROBE_SEED
    assumption: str = "lognormal"

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

    def fit(
        self,
        source: dict[str, RunCampaign],
        target: dict[str, RunCampaign],
        *,
        exclude: tuple[str, ...] = (),
    ) -> "CrossSystemPredictor":
        """Train the system-to-system mapping."""
        from .engine import CrossSystemDesign

        excl = set(exclude)
        return self._fit_design(
            CrossSystemDesign(
                {k: v for k, v in source.items() if k not in excl},
                {k: v for k, v in target.items() if k not in excl},
                n_replicas=self.n_replicas,
                feature_config=self.feature_config,
                seed=self.seed,
            )
        )

    def _probe_row(self, probe, assumption: str) -> np.ndarray:
        # Sketch probes recover both blocks from the source percentiles.
        return np.concatenate(
            [
                probe.features(self.feature_config, assumption=assumption),
                probe.encode_distribution(self.representation, assumption=assumption),
            ]
        )

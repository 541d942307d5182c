"""Frozen configuration objects — the v2 calling convention.

The v1 API spread the same half-dozen knobs as bare keywords across
``evaluate_few_runs`` / ``evaluate_cross_system`` and the two predictor
constructors, with per-call-site defaults that could silently drift.
The v2 surface consolidates them into two immutable dataclasses:

* :class:`PredictConfig` — how a *predictor* is built (model,
  representation, probe sampling, featurization, seed); consumed by
  :meth:`FewRunsPredictor.from_config` and
  :meth:`CrossSystemPredictor.from_config`;
* :class:`EvalConfig` — one leave-one-group-out *evaluation* (the same
  knobs plus the evaluation seed and worker count); consumed by
  :func:`~repro.core.evaluation.evaluate_few_runs` and
  :func:`~repro.core.evaluation.evaluate_cross_system`.

Model and representation fields accept either registry names (``"knn"``,
``"pearsonrnd"`` — resolved through :mod:`repro.registry`) or concrete
instances.  Both classes are plain frozen dataclasses: derive variants
with :func:`dataclasses.replace`.

The bare-keyword call paths of the 2.x API were removed in 3.0.0; see
the README's deprecation policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from .features import FeatureConfig

__all__ = ["PredictConfig", "EvalConfig", "DEFAULT_PROBE_SEED", "DEFAULT_EVAL_SEED"]

#: Seed of the probe-sampling stream used by the predictor pipelines.
DEFAULT_PROBE_SEED = 909090

#: Seed of the evaluation protocol (probe sampling + KS scoring draws).
DEFAULT_EVAL_SEED = 616161


def _resolve_model(model):
    """Registry name or instance -> fresh model instance."""
    if isinstance(model, str):
        from .. import registry

        return registry.model(model)
    return model


def _resolve_representation(representation):
    """Registry name or instance -> representation instance."""
    if isinstance(representation, str):
        from .. import registry

        return registry.representation(representation)
    return representation


@dataclass(frozen=True)
class PredictConfig:
    """How a prediction pipeline is assembled.

    Attributes
    ----------
    model:
        Registry name (``"knn"``/``"rf"``/``"xgboost"``) or a
        :class:`~repro.ml.base.Regressor` instance.
    representation:
        Registry name or a
        :class:`~repro.core.representations.DistributionRepresentation`.
    n_probe_runs:
        Probe size for use case 1 (ignored by use case 2).
    n_replicas:
        Training-row replicas per benchmark; ``None`` picks the use
        case's default (8 for few-runs, 4 for cross-system).
    feature_config:
        Featurization options.
    seed:
        Probe-sampling seed of the training-row builders.
    assumption:
        Moment-recovery assumption applied when the predictor is queried
        with a percentile-only :class:`~repro.core.sketch.SketchProbe`
        (``"lognormal"`` or ``"pearson"``); probes that pin their own
        assumption override it.  Sample probes ignore this entirely.
    """

    model: object = "knn"
    representation: object = "pearsonrnd"
    n_probe_runs: int = 10
    n_replicas: int | None = None
    feature_config: FeatureConfig | None = None
    seed: int = DEFAULT_PROBE_SEED
    assumption: str = "lognormal"

    def __post_init__(self) -> None:
        """Validate the assumption name eagerly (configs travel far)."""
        from .. import registry

        object.__setattr__(self, "assumption", registry.assumption(self.assumption))

    def resolve_model(self):
        """Fresh model instance for this config."""
        return _resolve_model(self.model)

    def resolve_representation(self):
        """Representation instance for this config."""
        return _resolve_representation(self.representation)

    def replicas(self, default: int) -> int:
        """``n_replicas`` with the use case's *default* filled in."""
        return default if self.n_replicas is None else self.n_replicas


@dataclass(frozen=True)
class EvalConfig:
    """One leave-one-group-out evaluation (use case 1 or 2).

    Attributes
    ----------
    representation / model:
        As in :class:`PredictConfig`; registry names additionally enable
        the engine's (model, encoding) fold-prediction memo.
    n_probe_runs:
        Probe size for use case 1 (ignored by use case 2).
    n_replicas:
        Training-row replicas per benchmark; ``None`` = use-case default.
    feature_config:
        Featurization options (``None`` = defaults).
    seed:
        Evaluation seed — probe sampling and the per-benchmark KS
        scoring streams both derive from it.
    n_workers:
        Fold-dispatch process count (1 = serial; results are
        bit-identical at any value).
    tree_method:
        Split-search kernel of the tree-based models: ``"exact"``
        (default; bit-stable reference path) or ``"hist"``
        (pre-binned histogram fast path, see :mod:`repro.ml.hist`).
        Applied to registry-name models that expose the knob; ignored
        by ``"knn"`` and by concrete model instances (which carry their
        own setting).
    probe_kind:
        What the evaluation predicts *from*: ``"samples"`` (the paper's
        protocol — raw probe campaigns, bit-identical to the historical
        path) or ``"sketch"`` (percentile-only telemetry simulation —
        each eval probe is summarized down to ``sketch_levels`` before
        prediction; training always uses full distributions).
    sketch_levels:
        Quantile levels of the simulated telemetry export (only read
        when ``probe_kind="sketch"``).
    assumption:
        Moment-recovery assumption of the sketch path (``"lognormal"``
        or ``"pearson"``; only read when ``probe_kind="sketch"``).
    """

    representation: object = "pearsonrnd"
    model: object = "knn"
    n_probe_runs: int = 10
    n_replicas: int | None = None
    feature_config: FeatureConfig | None = None
    seed: int = DEFAULT_EVAL_SEED
    n_workers: int = 1
    tree_method: str = "exact"
    probe_kind: str = "samples"
    sketch_levels: tuple = (0.5, 0.9, 0.95, 0.99)
    assumption: str = "lognormal"

    def __post_init__(self) -> None:
        """Validate the knobs that are cheap to check eagerly."""
        if self.n_probe_runs < 1:
            raise ValidationError("n_probe_runs must be >= 1")
        if self.n_replicas is not None and self.n_replicas < 1:
            raise ValidationError("n_replicas must be >= 1")
        if self.n_workers < 1:
            raise ValidationError("n_workers must be >= 1")
        from ..ml.tree import check_tree_method

        check_tree_method(self.tree_method)
        if self.probe_kind not in ("samples", "sketch"):
            raise ValidationError(
                f'probe_kind must be "samples" or "sketch", got {self.probe_kind!r}'
            )
        # Building the spec validates sketch_levels and assumption.
        self.probe_spec()

    def probe_spec(self):
        """Sketch-probe derivation spec, or ``None`` on the sample path."""
        if self.probe_kind != "sketch":
            return None
        from .sketch import SketchProbeSpec

        return SketchProbeSpec(levels=self.sketch_levels, assumption=self.assumption)

    def resolve_model(self):
        """Fresh model instance for this config.

        For registry names, ``tree_method`` is applied post-construction
        when the model exposes the knob (it is a constructor parameter,
        so clones keep it); concrete instances pass through untouched.
        """
        model = _resolve_model(self.model)
        if (
            isinstance(self.model, str)
            and self.tree_method != "exact"
            and hasattr(model, "tree_method")
        ):
            model.tree_method = self.tree_method
        return model

    def resolve_representation(self):
        """Representation instance for this config."""
        return _resolve_representation(self.representation)

    def model_key(self) -> str | None:
        """Memo key for the engine's fold-vector cache (names only).

        A non-default ``tree_method`` is part of the key: hist and exact
        fits of the same registry model are distinct cache entries.
        """
        if not isinstance(self.model, str):
            return None
        name = self.model.lower()
        if self.tree_method != "exact" and name != "knn":
            return f"{name}+{self.tree_method}"
        return name

    def replicas(self, default: int) -> int:
        """``n_replicas`` with the use case's *default* filled in."""
        return default if self.n_replicas is None else self.n_replicas

"""The paper's primary contribution: performance-distribution prediction.

* :mod:`~repro.core.features` — application-profile featurization;
* :mod:`~repro.core.representations` — Histogram / PyMaxEnt / PearsonRnd
  distribution encodings;
* :mod:`~repro.core.predictors` — the use-case-1 and use-case-2 pipelines;
* :mod:`~repro.core.sketch` — percentile-only probes (``QuantileSketch``
  and the ``Probe`` union the predictors accept);
* :mod:`~repro.core.evaluation` — the leave-one-group-out KS protocol.
"""

from .config import DEFAULT_EVAL_SEED, DEFAULT_PROBE_SEED, EvalConfig, PredictConfig
from .evaluation import (
    MODELS,
    KSSummary,
    evaluate_cross_system,
    evaluate_few_runs,
    summarize_ks,
)
from .features import FeatureConfig, feature_names, profile_features
from .predictors import CrossSystemPredictor, FewRunsPredictor
from .representations import (
    REPRESENTATIONS,
    DistributionRepresentation,
    HistogramRepresentation,
    PearsonRndRepresentation,
    PyMaxEntRepresentation,
    ReconstructedDistribution,
)
from .sketch import (
    ASSUMPTIONS,
    DEFAULT_SKETCH_LEVELS,
    Probe,
    QuantileSketch,
    SampleProbe,
    SketchProbe,
    SketchProbeSpec,
    as_probe,
)

__all__ = [
    "DEFAULT_EVAL_SEED",
    "DEFAULT_PROBE_SEED",
    "EvalConfig",
    "PredictConfig",
    "MODELS",
    "KSSummary",
    "evaluate_cross_system",
    "evaluate_few_runs",
    "summarize_ks",
    "FeatureConfig",
    "feature_names",
    "profile_features",
    "ASSUMPTIONS",
    "DEFAULT_SKETCH_LEVELS",
    "Probe",
    "QuantileSketch",
    "SampleProbe",
    "SketchProbe",
    "SketchProbeSpec",
    "as_probe",
    "CrossSystemPredictor",
    "FewRunsPredictor",
    "REPRESENTATIONS",
    "DistributionRepresentation",
    "HistogramRepresentation",
    "PearsonRndRepresentation",
    "PyMaxEntRepresentation",
    "ReconstructedDistribution",
]

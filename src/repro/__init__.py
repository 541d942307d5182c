"""repro — reproduction of *Predicting Performance Variability* (IPDPS 2025).

Predict the full run-to-run performance **distribution** of an application
— modes, tails, spread — instead of a scalar summary, either from a few
runs on the same system (use case 1) or from a measured distribution on a
different system (use case 2).

Quickstart
----------
>>> from repro import FewRunsPredictor, measure_all
>>> campaigns = measure_all("intel", n_runs=300)              # doctest: +SKIP
>>> probe = campaigns.pop("spec_omp/376")                     # doctest: +SKIP
>>> predictor = FewRunsPredictor().fit(campaigns)             # doctest: +SKIP
>>> dist = predictor.predict_distribution(probe.subset(range(10)))  # doctest: +SKIP
>>> dist.sample(1000)                                         # doctest: +SKIP

Package map
-----------
* :mod:`repro.core` — prediction pipelines (the paper's contribution);
* :mod:`repro.stats` — moments, KDE, KS, Pearson system, MaxEnt;
* :mod:`repro.ml` — kNN / random forest / gradient boosting, scalers;
* :mod:`repro.simbench` — the simulated benchmarks + systems substrate;
* :mod:`repro.data` — campaign containers, metric catalogs, mini-table;
* :mod:`repro.experiments` — per-figure/table reproduction runners;
* :mod:`repro.viz` — terminal density plots and series export;
* :mod:`repro.parallel` — deterministic seeding + process-pool map;
* :mod:`repro.obs` — metrics/tracing (contract in docs/OBSERVABILITY.md).
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

# Every public name is imported on first use, so ``import repro`` (and
# every subpackage import, such as the fleet router's) loads no numpy.
__getattr__ = lazy_exports(
    __name__,
    {
        ".registry": ("registry",),
        ".core": (
            "CrossSystemPredictor",
            "EvalConfig",
            "FewRunsPredictor",
            "HistogramRepresentation",
            "PearsonRndRepresentation",
            "PredictConfig",
            "PyMaxEntRepresentation",
            "QuantileSketch",
            "SampleProbe",
            "SketchProbe",
            "as_probe",
            "evaluate_cross_system",
            "evaluate_few_runs",
            "summarize_ks",
        ),
        ".simbench": ("benchmark_names", "measure_all", "run_campaign"),
    },
)

if TYPE_CHECKING:
    from . import registry
    from .core import (
        CrossSystemPredictor,
        EvalConfig,
        FewRunsPredictor,
        HistogramRepresentation,
        PearsonRndRepresentation,
        PredictConfig,
        PyMaxEntRepresentation,
        QuantileSketch,
        SampleProbe,
        SketchProbe,
        as_probe,
        evaluate_cross_system,
        evaluate_few_runs,
        summarize_ks,
    )
    from .simbench import benchmark_names, measure_all, run_campaign

__version__ = "5.0.0"

#: The stable surface.  Components are looked up through
#: :mod:`repro.registry`; the online serving subsystem lives in
#: :mod:`repro.serving` (imported on demand — ``import repro.serving``).
#: Deprecation policy: see README.md.
__all__ = [
    "CrossSystemPredictor",
    "EvalConfig",
    "FewRunsPredictor",
    "HistogramRepresentation",
    "PearsonRndRepresentation",
    "PredictConfig",
    "PyMaxEntRepresentation",
    "QuantileSketch",
    "SampleProbe",
    "SketchProbe",
    "as_probe",
    "registry",
    "evaluate_cross_system",
    "evaluate_few_runs",
    "summarize_ks",
    "benchmark_names",
    "measure_all",
    "run_campaign",
    "__version__",
]

"""Use case 2 experiment runners — Figs. 7, 8 and 9 of the paper.

* :func:`representation_model_grid` — Fig. 7: KS per (representation,
  model) when measuring on AMD and predicting for Intel;
* :func:`direction_study` — Fig. 8: AMD->Intel vs Intel->AMD;
* :func:`overlay_examples` — Fig. 9: measured vs. predicted overlays.
"""

from __future__ import annotations

from .. import obs, registry
from .._validation import check_random_state
from ..core.config import EvalConfig
from ..core.engine import CrossSystemDesign
from ..core.evaluation import evaluate_cross_system
# Each grid scores through the loop in usecase1; bench/layers.py wraps
# `score_fold_vectors` on both use-case modules by name, so it stays
# importable from here.
from ..core.evaluation import score_fold_vectors  # noqa: F401
from ..core.predictors import CrossSystemPredictor
from ..data.dataset import RunCampaign
from ..data.table import ColumnTable
from ..parallel.seeding import seed_for
from ..parallel.worker_pool import WorkerPool
from .config import ExperimentConfig, PAPER_CONFIG
from .usecase1 import OverlayExample, _design_grid, _overlay_example, measure_campaigns

__all__ = [
    "measure_both_systems",
    "representation_model_grid",
    "direction_study",
    "overlay_examples",
]


def measure_both_systems(
    config: ExperimentConfig = PAPER_CONFIG,
) -> tuple[dict[str, RunCampaign], dict[str, RunCampaign]]:
    """(amd campaigns, intel campaigns) for the configured roster."""
    return measure_campaigns(config, "amd"), measure_campaigns(config, "intel")


def representation_model_grid(
    source: dict[str, RunCampaign],
    target: dict[str, RunCampaign],
    config: ExperimentConfig = PAPER_CONFIG,
) -> ColumnTable:
    """Fig. 7 data: (representation, model, benchmark, ks), source->target.

    Shares one :class:`~repro.core.engine.CrossSystemDesign` over the
    benchmarks measured on both systems across all nine cells;
    encoding-compatible representations also share fold predictions.
    The cells run through the same loop and ``stage`` spans as
    :func:`repro.experiments.usecase1.representation_model_grid`.
    """
    with obs.span("stage", stage="featurize"):
        design = CrossSystemDesign(
            source, target, n_replicas=config.n_replicas_uc2, seed=config.eval_seed
        )
    return _design_grid(design, config)


def direction_study(
    amd: dict[str, RunCampaign],
    intel: dict[str, RunCampaign],
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    representation: str = "pearsonrnd",
    model: str = "knn",
) -> ColumnTable:
    """Fig. 8 data: per-benchmark KS for both prediction directions.

    Both directions share one persistent worker pool, so the second
    direction dispatches onto already-warm workers.
    """
    rep = registry.representation(representation)
    frames = []
    with WorkerPool(config.n_workers) as pool:
        for direction, (src, dst) in {
            "amd_to_intel": (amd, intel),
            "intel_to_amd": (intel, amd),
        }.items():
            tab = evaluate_cross_system(
                src,
                dst,
                config=EvalConfig(
                    representation=rep,
                    model=model,
                    n_replicas=config.n_replicas_uc2,
                    seed=config.eval_seed,
                    n_workers=config.n_workers,
                    tree_method=config.tree_method,
                ),
                pool=pool,
            )
            for row in tab.rows():
                frames.append(
                    {
                        "direction": direction,
                        "benchmark": row["benchmark"],
                        "suite": row["suite"],
                        "ks": float(row["ks"]),
                    }
                )
    return ColumnTable.from_rows(frames)


def overlay_examples(
    source: dict[str, RunCampaign],
    target: dict[str, RunCampaign],
    benchmarks: tuple[str, ...],
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    representation: str = "pearsonrnd",
    model: str = "knn",
) -> list[OverlayExample]:
    """Fig. 9 data: true-LOGO cross-system overlays for selected benchmarks.

    The model is fitted with ``config.tree_method``.
    """
    rep = registry.representation(representation)
    out = []
    for bench in benchmarks:
        if bench not in source or bench not in target:
            continue
        predictor = CrossSystemPredictor(
            model=config.resolve_grid_model(model)[0],
            representation=rep,
            n_replicas=config.n_replicas_uc2,
            seed=config.eval_seed,
        ).fit(source, target, exclude=(bench,))
        rng = check_random_state(seed_for(config.eval_seed, "xoverlay", bench))
        out.append(_overlay_example(bench, predictor, source[bench], target[bench], rng))
    return out

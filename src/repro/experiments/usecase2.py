"""Use case 2 experiment runners — Figs. 7, 8 and 9 of the paper.

* :func:`representation_model_grid` — Fig. 7: KS per (representation,
  model) when measuring on AMD and predicting for Intel;
* :func:`direction_study` — Fig. 8: AMD->Intel vs Intel->AMD;
* :func:`overlay_examples` — Fig. 9: measured vs. predicted overlays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs, registry
from .._validation import check_random_state
from ..core.engine import CrossSystemDesign
from ..errors import ValidationError
from ..core.config import EvalConfig
from ..core.evaluation import (
    evaluate_cross_system,
    score_fold_vectors,
)
from ..core.predictors import CrossSystemPredictor
from ..data.dataset import RunCampaign
from ..data.table import ColumnTable
from ..parallel.seeding import seed_for
from ..parallel.worker_pool import WorkerPool
from ..simbench.runner import measure_all
from .config import ExperimentConfig, PAPER_CONFIG

__all__ = [
    "measure_both_systems",
    "representation_model_grid",
    "direction_study",
    "overlay_examples",
    "CrossOverlayExample",
]


def measure_both_systems(
    config: ExperimentConfig = PAPER_CONFIG,
) -> tuple[dict[str, RunCampaign], dict[str, RunCampaign]]:
    """(amd campaigns, intel campaigns) for the configured roster."""
    amd = measure_all(
        "amd",
        benchmarks=config.benchmarks,
        n_runs=config.n_runs,
        root_seed=config.root_seed,
        n_workers=config.n_workers,
    )
    intel = measure_all(
        "intel",
        benchmarks=config.benchmarks,
        n_runs=config.n_runs,
        root_seed=config.root_seed,
        n_workers=config.n_workers,
    )
    return amd, intel


def representation_model_grid(
    source: dict[str, RunCampaign],
    target: dict[str, RunCampaign],
    config: ExperimentConfig = PAPER_CONFIG,
) -> ColumnTable:
    """Fig. 7 data: (representation, model, benchmark, ks), source->target.

    Shares one :class:`~repro.core.engine.CrossSystemDesign` across all
    nine cells; encoding-compatible representations also share fold
    predictions.  Phases are timed by ``stage`` spans, as in
    :func:`repro.experiments.usecase1.representation_model_grid`.
    """
    common = sorted(set(source) & set(target))
    if len(common) < 2:
        raise ValidationError("need at least two benchmarks common to both systems")
    with obs.span("stage", stage="featurize"):
        design = CrossSystemDesign(
            {k: source[k] for k in common},
            {k: target[k] for k in common},
            n_replicas=config.n_replicas_uc2,
            seed=config.eval_seed,
        )
    frames = []
    with WorkerPool(config.n_workers) as pool:
        for rep_name in config.representations:
            rep = registry.representation(rep_name)
            for model_name in config.models:
                model, model_key = config.resolve_grid_model(model_name)
                with obs.span("cell", representation=rep_name, model=model_name):
                    with obs.span("stage", stage="fit"):
                        vectors = design.fold_vectors(
                            model,
                            rep,
                            model_key=model_key,
                            n_workers=config.n_workers,
                            pool=pool,
                        )
                    with obs.span("stage", stage="score"):
                        tab = score_fold_vectors(
                            vectors, rep, design.measured, seed=config.eval_seed
                        )
                for row in tab.rows():
                    frames.append(
                        {
                            "representation": rep_name,
                            "model": model_name,
                            "benchmark": row["benchmark"],
                            "suite": row["suite"],
                            "ks": float(row["ks"]),
                        }
                    )
    return ColumnTable.from_rows(frames)


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


@dataclass(frozen=True)
class CrossOverlayExample:
    """Measured vs. predicted target-system samples for one benchmark."""

    benchmark: str
    ks: float
    measured: np.ndarray
    predicted: np.ndarray


def overlay_examples(
    source: dict[str, RunCampaign],
    target: dict[str, RunCampaign],
    benchmarks: tuple[str, ...],
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    representation: str = "pearsonrnd",
    model: str = "knn",
) -> list[CrossOverlayExample]:
    """Fig. 9 data: true-LOGO cross-system overlays for selected benchmarks."""
    rep = registry.representation(representation)
    out = []
    for bench in benchmarks:
        if bench not in source or bench not in target:
            continue
        predictor = CrossSystemPredictor(
            model=registry.model(model),
            representation=rep,
            n_replicas=config.n_replicas_uc2,
            seed=config.eval_seed,
        ).fit(source, target, exclude=(bench,))
        vector = predictor.predict_vector(source[bench])
        recon = rep.reconstruct(vector)
        rng = check_random_state(seed_for(config.eval_seed, "xoverlay", bench))
        measured = target[bench].relative_times()
        predicted = recon.sample(target[bench].n_runs, rng=rng)
        ks = rep.ks_score(vector, measured, rng=rng)
        out.append(
            CrossOverlayExample(
                benchmark=bench, ks=float(ks), measured=measured, predicted=predicted
            )
        )
    return out

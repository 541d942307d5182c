"""Use case 1 experiment runners — Figs. 4, 5 and 6 of the paper.

* :func:`representation_model_grid` — Fig. 4: per-benchmark KS scores for
  every (distribution representation, model) combination at a fixed probe
  size;
* :func:`sample_count_sweep` — Fig. 6: KS vs. number of probe runs for the
  winning combination;
* :func:`overlay_examples` — Fig. 5: measured vs. predicted sample pairs
  for selected benchmarks across the KS spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs, registry
from .._validation import check_random_state
from ..core.engine import FewRunsDesign
from ..core.evaluation import (
    score_fold_vectors,
    score_vector_sets,
    summarize_ks,
)
from ..core.features import FeatureConfig
from ..core.predictors import FewRunsPredictor
from ..data.dataset import RunCampaign
from ..data.table import ColumnTable
from ..parallel.seeding import seed_for
from ..parallel.worker_pool import WorkerPool
from ..simbench.runner import measure_all
from .config import ExperimentConfig, PAPER_CONFIG

__all__ = [
    "measure_campaigns",
    "representation_model_grid",
    "sample_count_sweep",
    "overlay_examples",
    "OverlayExample",
]


def measure_campaigns(
    config: ExperimentConfig = PAPER_CONFIG, system: str = "intel"
) -> dict[str, RunCampaign]:
    """Measured campaigns for the configured roster on one system."""
    return measure_all(
        system,
        benchmarks=config.benchmarks,
        n_runs=config.n_runs,
        root_seed=config.root_seed,
        n_workers=config.n_workers,
    )


def representation_model_grid(
    campaigns: dict[str, RunCampaign],
    config: ExperimentConfig = PAPER_CONFIG,
) -> ColumnTable:
    """Fig. 4 data: long-form table (representation, model, benchmark, ks).

    The featurization design is built once and shared by all nine cells
    (see :mod:`repro.core.engine`); representations with a common
    encoding additionally share fold-model predictions.  The
    featurize/fit/score phases run inside :mod:`repro.obs` ``stage``
    spans, so an enabled run's ``obs.stage_totals`` is their breakdown.
    """
    with obs.span("stage", stage="featurize"):
        design = FewRunsDesign(
            campaigns,
            n_probe_runs=config.n_probe_runs,
            n_replicas=config.n_replicas_uc1,
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


def sample_count_sweep(
    campaigns: dict[str, RunCampaign],
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    representation: str = "pearsonrnd",
    model: str = "knn",
) -> ColumnTable:
    """Fig. 6 data: per-benchmark KS for each probe size.

    One persistent :class:`~repro.parallel.WorkerPool` serves every probe
    size (the design — and therefore the fold matrices — changes per
    size, but the workers and shm plane are reused), and scoring is
    batched across sizes with :func:`score_vector_sets` so each
    benchmark's 1,000-run measured sample is sorted once per size-batch
    instead of once per (size, benchmark) decode.  Bit-identical to the
    per-size :func:`~repro.core.evaluation.evaluate_few_runs` loop it
    replaces.
    """
    rep = registry.representation(representation)
    mdl_key = model.lower()
    vector_sets = []
    measured = None
    with WorkerPool(config.n_workers) as pool:
        for n_samples in config.sample_counts:
            design = FewRunsDesign(
                campaigns,
                n_probe_runs=n_samples,
                n_replicas=config.n_replicas_uc1,
                seed=config.eval_seed,
            )
            vector_sets.append(
                design.fold_vectors(
                    registry.model(mdl_key),
                    rep,
                    model_key=mdl_key,
                    n_workers=config.n_workers,
                    pool=pool,
                )
            )
            measured = design.measured
    tables = score_vector_sets(vector_sets, rep, measured, seed=config.eval_seed)
    frames = []
    for n_samples, tab in zip(config.sample_counts, tables):
        for row in tab.rows():
            frames.append(
                {
                    "n_samples": n_samples,
                    "benchmark": row["benchmark"],
                    "suite": row["suite"],
                    "ks": float(row["ks"]),
                }
            )
    return ColumnTable.from_rows(frames)


@dataclass(frozen=True)
class OverlayExample:
    """Measured vs. predicted relative-time samples for one benchmark."""

    benchmark: str
    ks: float
    measured: np.ndarray
    predicted: np.ndarray


def overlay_examples(
    campaigns: dict[str, RunCampaign],
    benchmarks: tuple[str, ...],
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    representation: str = "pearsonrnd",
    model: str = "knn",
) -> list[OverlayExample]:
    """Fig. 5 data: leave-one-out predictions for selected benchmarks.

    Each selected benchmark is predicted by a model trained on every
    *other* campaign (true LOGO), probed with ``config.n_probe_runs``
    fresh runs.
    """
    rep = registry.representation(representation)
    out = []
    for bench in benchmarks:
        if bench not in campaigns:
            continue
        predictor = FewRunsPredictor(
            model=registry.model(model),
            representation=rep,
            n_probe_runs=config.n_probe_runs,
            n_replicas=config.n_replicas_uc1,
            seed=config.eval_seed,
        ).fit(campaigns, exclude=(bench,))
        rng = check_random_state(
            seed_for(config.eval_seed, "overlay", bench, str(config.n_probe_runs))
        )
        probe = campaigns[bench].sample_runs(config.n_probe_runs, rng)
        vector = predictor.predict_vector(probe)
        recon = rep.reconstruct(vector)
        measured = campaigns[bench].relative_times()
        predicted = recon.sample(campaigns[bench].n_runs, rng=rng)
        ks = rep.ks_score(vector, measured, rng=rng)
        out.append(
            OverlayExample(
                benchmark=bench, ks=float(ks), measured=measured, predicted=predicted
            )
        )
    return out

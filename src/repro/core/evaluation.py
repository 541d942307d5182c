"""Leave-one-group-out evaluation of the two use cases (paper Section V).

The paper scores every (representation, model) combination by holding out
one benchmark at a time — the model never sees the application under test
— predicting its distribution, and recording the KS statistic against the
measured 1,000-run distribution.  The violin plots of Figs. 4, 6, 7 and 8
are distributions of these per-benchmark KS scores.

``evaluate_few_runs`` / ``evaluate_cross_system`` implement that protocol
on prebuilt training rows (featurized once, refit per fold) and return a
tidy :class:`~repro.data.table.ColumnTable` with one row per benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from .._validation import check_random_state
from ..data.dataset import RunCampaign
from ..data.table import ColumnTable
from ..errors import ValidationError
from ..ml.base import Regressor
from ..ml.boosting import GradientBoostingRegressor
from ..ml.forest import RandomForestRegressor
from ..ml.knn import KNNRegressor
from ..parallel.seeding import seed_for
from ..simbench.suites import suite_of
from .config import EvalConfig
from .engine import CrossSystemDesign, FewRunsDesign
from .representations import DistributionRepresentation

__all__ = [
    "MODELS",
    "score_fold_vectors",
    "score_vector_sets",
    "evaluate_few_runs",
    "evaluate_cross_system",
    "summarize_ks",
]

def _make_knn() -> Regressor:
    return KNNRegressor(15, metric="cosine")


def _make_rf() -> Regressor:
    # sklearn-default-like: unrestricted depth, single-sample leaves.
    return RandomForestRegressor(
        n_estimators=40, max_depth=None, max_features="sqrt", min_samples_leaf=1, rng=7
    )


def _make_xgboost() -> Regressor:
    # XGBoost-default-like: lr 0.3, depth 6, no row/column subsampling
    # (colsample slightly below 1 keeps single-core runtimes sane while
    # preserving the default's overfitting behaviour on small corpora).
    return GradientBoostingRegressor(
        n_estimators=40,
        learning_rate=0.3,
        max_depth=6,
        subsample=1.0,
        colsample_bytree=0.5,
        min_samples_leaf=1,
        rng=7,
    )


#: The paper's three models under their reporting names.
MODELS: dict[str, object] = {
    "knn": _make_knn,
    "rf": _make_rf,
    "xgboost": _make_xgboost,
}


def score_fold_vectors(
    vectors: dict[str, np.ndarray],
    representation: DistributionRepresentation,
    measured: dict[str, np.ndarray],
    *,
    seed: int,
) -> ColumnTable:
    """KS-score per-benchmark fold predictions into the tidy result table.

    The scoring RNG is keyed per benchmark, independent of how (or in
    what order) the vectors were produced.
    """
    names = sorted(measured)
    ks_scores = []
    for bench in names:
        rng = check_random_state(seed_for(seed, "ks", bench))
        ks_scores.append(
            representation.ks_score(vectors[bench], measured[bench], rng=rng)
        )
    obs.counter("engine.ks.scored", len(names))
    return ColumnTable(
        {
            "benchmark": names,
            "suite": [suite_of(n) for n in names],
            "ks": np.asarray(ks_scores),
        }
    )


def score_vector_sets(
    vector_sets: list[dict[str, np.ndarray]],
    representation: DistributionRepresentation,
    measured: dict[str, np.ndarray],
    *,
    seed: int,
) -> list[ColumnTable]:
    """Score several fold-prediction sets against one measured corpus.

    Batched sibling of :func:`score_fold_vectors` for sweeps that
    produce multiple prediction sets per benchmark (e.g. the Fig. 6
    probe-size sweep): each benchmark's measured sample is scored once
    *per set* but — for sample-decoded representations — sorted only
    once across all sets via
    :meth:`~repro.core.representations.DistributionRepresentation.ks_score_many`.

    Bit-identical to calling :func:`score_fold_vectors` once per set:
    the scoring RNG is freshly keyed per (benchmark) for every set,
    exactly as the sequential path does.
    """
    names = sorted(measured)
    per_set: list[list[float]] = [[] for _ in vector_sets]
    for bench in names:
        rngs = [
            check_random_state(seed_for(seed, "ks", bench)) for _ in vector_sets
        ]
        scores = representation.ks_score_many(
            [vectors[bench] for vectors in vector_sets],
            measured[bench],
            rngs=rngs,
        )
        for out, score in zip(per_set, scores):
            out.append(float(score))
    obs.counter("engine.ks.scored", len(names) * len(vector_sets))
    suites = [suite_of(n) for n in names]
    return [
        ColumnTable(
            {
                "benchmark": names,
                "suite": suites,
                "ks": np.asarray(scores),
            }
        )
        for scores in per_set
    ]


def _require_config(config: EvalConfig | None, api: str) -> EvalConfig:
    """*config*, or a :class:`ValidationError` naming the calling convention."""
    if not isinstance(config, EvalConfig):
        raise ValidationError(f"{api} needs config=EvalConfig(...), got {config!r}")
    return config


def _score_cell(cfg: EvalConfig, design, pool) -> ColumnTable:
    """KS table of *cfg*'s (representation, model) cell on *design*."""
    rep = cfg.resolve_representation()
    vectors = design.fold_vectors(
        cfg.resolve_model(),
        rep,
        model_key=cfg.model_key(),
        n_workers=cfg.n_workers,
        pool=pool,
        probe_spec=cfg.probe_spec(),
    )
    return score_fold_vectors(vectors, rep, design.measured, seed=cfg.seed)


def evaluate_few_runs(
    campaigns: dict[str, RunCampaign] | None = None,
    config: EvalConfig | None = None,
    *,
    design: FewRunsDesign | None = None,
    pool=None,
) -> ColumnTable:
    """Use-case-1 LOGO evaluation; one KS score per benchmark.

    Called as ``evaluate_few_runs(campaigns, config=EvalConfig(...))``.

    The evaluation probe of each benchmark is drawn with a seed stream
    disjoint from the training replicas, so a held-out application is
    scored on a probe the training rows never contained.

    Pass a prebuilt :class:`~repro.core.engine.FewRunsDesign` to share
    featurization (and memoized fold predictions) across several calls —
    the grid runners do this; the design then supersedes ``campaigns``
    and the sampling parameters.  ``n_workers > 1`` fans the per-fold
    refits out across processes without changing any result; pass a
    persistent :class:`~repro.parallel.WorkerPool` as ``pool`` to reuse
    warm workers (and their shared-memory plane) across calls.
    """
    cfg = _require_config(config, "evaluate_few_runs")
    if design is None:
        if campaigns is None:
            raise ValidationError("need campaigns or a prebuilt design")
        design = FewRunsDesign(
            campaigns,
            n_probe_runs=cfg.n_probe_runs,
            n_replicas=cfg.replicas(8),
            feature_config=cfg.feature_config,
            seed=cfg.seed,
        )
    return _score_cell(cfg, design, pool)


def evaluate_cross_system(
    source: dict[str, RunCampaign] | None = None,
    target: dict[str, RunCampaign] | None = None,
    config: EvalConfig | None = None,
    *,
    design: CrossSystemDesign | None = None,
    pool=None,
) -> ColumnTable:
    """Use-case-2 LOGO evaluation; one KS score per benchmark.

    Called as ``evaluate_cross_system(src, dst, config=EvalConfig(...))``.
    Accepts a prebuilt :class:`~repro.core.engine.CrossSystemDesign` like
    :func:`evaluate_few_runs` does for use case 1, and a persistent
    ``pool`` like it too.  Only the benchmarks measured on both systems
    take part.
    """
    cfg = _require_config(config, "evaluate_cross_system")
    if design is None:
        if source is None or target is None:
            raise ValidationError("need campaigns or a prebuilt design")
        design = CrossSystemDesign(
            source,
            target,
            n_replicas=cfg.replicas(4),
            feature_config=cfg.feature_config,
            seed=cfg.seed,
        )
    return _score_cell(cfg, design, pool)


@dataclass(frozen=True)
class KSSummary:
    """Aggregate view of a per-benchmark KS table."""

    mean: float
    median: float
    p25: float
    p75: float
    worst: float
    best: float
    n: int


def summarize_ks(table: ColumnTable) -> KSSummary:
    """Mean/median/quartile summary of the ``ks`` column."""
    ks = np.asarray(table["ks"], dtype=np.float64)
    return KSSummary(
        mean=float(ks.mean()),
        median=float(np.median(ks)),
        p25=float(np.percentile(ks, 25)),
        p75=float(np.percentile(ks, 75)),
        worst=float(ks.max()),
        best=float(ks.min()),
        n=int(ks.size),
    )

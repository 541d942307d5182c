"""End-to-end instrumentation contract on small UC1/UC2 grids.

Three promises from docs/OBSERVABILITY.md:

* enabling observability is bit-neutral (identical KS results);
* `engine.*` / `binning.*` / `cache.*` / `simbench.*` counters are
  deterministic across worker counts;
* each grid's ``stage`` spans split its cells into featurize/fit/score.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import obs
from repro.experiments import usecase2
from repro.experiments.config import ExperimentConfig
from repro.experiments.usecase1 import measure_campaigns, representation_model_grid
from repro.obs import cell_walls, stage_totals, trace_records

BENCHES = ("npb/cg", "npb/is", "npb/bt", "rodinia/heartwall", "parsec/canneal")

CFG = ExperimentConfig(
    benchmarks=BENCHES,
    n_runs=80,
    n_probe_runs=8,
    n_replicas_uc1=2,
    representations=("histogram", "pymaxent", "pearsonrnd"),
    models=("knn",),
    root_seed=11,
    n_workers=1,
)

DETERMINISTIC_FAMILIES = ("engine", "binning", "cache", "simbench")


def _run_workload(n_workers: int, use_case: str = "uc1", **overrides):
    """Measure + grid at *n_workers*; returns (ks list, counter snapshot)."""
    cfg = replace(CFG, n_workers=n_workers, **overrides)
    campaigns = measure_campaigns(cfg, "intel")
    if use_case == "uc1":
        grid = representation_model_grid(campaigns, cfg)
    else:
        amd = measure_campaigns(cfg, "amd")
        grid = usecase2.representation_model_grid(amd, campaigns, cfg)
    return list(grid["ks"]), obs.get_registry().snapshot()["counters"]


def _deterministic(counters: dict) -> dict:
    return {
        k: v for k, v in counters.items() if k.split(".")[0] in DETERMINISTIC_FAMILIES
    }


class TestBitNeutrality:
    def test_results_identical_with_obs_on_and_off(self):
        ks_off, _ = _run_workload(1)
        obs.enable()
        ks_on, _ = _run_workload(1)
        obs.disable()
        assert ks_on == ks_off  # bit-identical, not approx


class TestCounterDeterminism:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_deterministic_families_match_serial(self, workers):
        obs.enable()
        ks_serial, counters_serial = _run_workload(1)
        obs.enable()  # fresh run
        ks_par, counters_par = _run_workload(workers)
        obs.disable()
        assert ks_par == ks_serial
        assert _deterministic(counters_par) == _deterministic(counters_serial)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("use_case", ["uc1", "uc2"])
    def test_hist_grids_match_serial(self, use_case, workers):
        hist = dict(models=("knn", "xgboost"), tree_method="hist")
        obs.enable()
        ks_serial, counters_serial = _run_workload(1, use_case, **hist)
        obs.enable()  # fresh run
        ks_par, counters_par = _run_workload(workers, use_case, **hist)
        obs.disable()
        assert ks_par == ks_serial
        assert counters_par["binning.cache_misses"] > 0
        assert _deterministic(counters_par) == _deterministic(counters_serial)

    def test_expected_dedup_counts(self):
        obs.enable()
        _run_workload(1)
        obs.disable()
        counters = obs.get_registry().snapshot()["counters"]
        n_cells = len(CFG.representations) * len(CFG.models)
        # pymaxent+pearsonrnd share an encoding -> one fold-vector hit
        assert counters["engine.fold_vectors.misses"] == 2
        assert counters["engine.fold_vectors.hits"] == n_cells - 2
        assert counters["engine.targets.misses"] == 2
        assert counters["engine.folds.fitted"] == 2 * len(BENCHES)
        assert counters["engine.ks.scored"] == n_cells * len(BENCHES)
        assert counters["simbench.campaigns.measured"] == len(BENCHES)
        assert counters["simbench.runs.measured"] == len(BENCHES) * CFG.n_runs


#: Counters of the deterministic families, plus the exact kernel's
#: ``tree.fits``/``tree.nodes`` and ``forest.fits``, after one serial
#: exact-kernel UC1 grid of CFG's campaigns with the rf and xgboost
#: models.  Recorded when every forest member was a separate tree fit;
#: members grown in lockstep must count the same.
EXACT_UC1_COUNTERS = {
    "engine.fold_vectors.hits": 2,
    "engine.fold_vectors.misses": 4,
    "engine.folds.fitted": 20,
    "engine.ks.scored": 30,
    "engine.scaled_folds.hits": 15,
    "engine.scaled_folds.misses": 5,
    "engine.targets.hits": 2,
    "engine.targets.misses": 2,
    "forest.fits": 10,
    "simbench.campaigns.measured": 5,
    "simbench.runs.measured": 400,
    "tree.fits": 800,
    "tree.nodes": 5240,
}


class TestExactKernelCounters:
    def test_uc1_tree_counters_match_the_recorded_pass(self):
        cfg = replace(CFG, models=("rf", "xgboost"))
        obs.enable()
        try:
            campaigns = measure_campaigns(cfg, "intel")
            representation_model_grid(campaigns, cfg)
            counters = obs.get_registry().snapshot()["counters"]
        finally:
            obs.disable()
        families = DETERMINISTIC_FAMILIES + ("tree", "forest")
        assert {
            k: v for k, v in counters.items() if k.split(".")[0] in families
        } == EXACT_UC1_COUNTERS


#: KS sum and counters (deterministic families plus the serial kernel's
#: ``tree.*``/``forest.*``) of one serial CFG grid with all three models,
#: per (use case, tree kernel).  Recorded before both use cases shared
#: one design base and fold path; the shared path must count the same.
GRID_PINS = {
    ("uc1", "hist"): (17.379256166311265, {
        "binning.cache_hits": 3,
        "binning.cache_misses": 1,
        "engine.fold_vectors.hits": 3,
        "engine.fold_vectors.misses": 6,
        "engine.folds.fitted": 30,
        "engine.ks.scored": 45,
        "engine.scaled_folds.hits": 25,
        "engine.scaled_folds.misses": 5,
        "engine.targets.hits": 4,
        "engine.targets.misses": 2,
        "forest.fits": 10,
        "simbench.campaigns.measured": 5,
        "simbench.runs.measured": 400,
        "tree.fits": 800,
        "tree.hist_nodes": 5240,
        "tree.nodes": 5240,
        "tree.rows_partitioned": 12778,
    }),
    ("uc2", "exact"): (16.99305249333256, {
        "engine.fold_vectors.hits": 3,
        "engine.fold_vectors.misses": 6,
        "engine.folds.fitted": 30,
        "engine.ks.scored": 45,
        "engine.scaled_folds.hits": 20,
        "engine.scaled_folds.misses": 10,
        "engine.targets.hits": 4,
        "engine.targets.misses": 2,
        "forest.fits": 10,
        "simbench.campaigns.measured": 10,
        "simbench.runs.measured": 800,
        "tree.fits": 800,
        "tree.nodes": 5562,
    }),
    ("uc2", "hist"): (18.84315433369367, {
        "binning.cache_hits": 2,
        "binning.cache_misses": 2,
        "engine.fold_vectors.hits": 3,
        "engine.fold_vectors.misses": 6,
        "engine.folds.fitted": 30,
        "engine.ks.scored": 45,
        "engine.scaled_folds.hits": 20,
        "engine.scaled_folds.misses": 10,
        "engine.targets.hits": 4,
        "engine.targets.misses": 2,
        "forest.fits": 10,
        "simbench.campaigns.measured": 10,
        "simbench.runs.measured": 800,
        "tree.fits": 800,
        "tree.hist_nodes": 5564,
        "tree.nodes": 5564,
        "tree.rows_partitioned": 26703,
    }),
}


class TestGridCounterPins:
    @pytest.mark.parametrize("use_case, tree_method", sorted(GRID_PINS))
    def test_grid_matches_the_recorded_pass(self, use_case, tree_method):
        ks_sum, pinned = GRID_PINS[use_case, tree_method]
        obs.enable()
        try:
            ks, counters = _run_workload(
                1, use_case, models=("knn", "rf", "xgboost"), tree_method=tree_method
            )
        finally:
            obs.disable()
        families = DETERMINISTIC_FAMILIES + ("tree", "forest")
        assert sum(ks) == ks_sum
        assert {
            k: v for k, v in counters.items() if k.split(".")[0] in families
        } == pinned


class TestStageReconciliation:
    @pytest.mark.parametrize("use_case", ["uc1", "uc2"])
    def test_grid_stage_spans_split_the_cells(self, use_case):
        campaigns = measure_campaigns(CFG, "intel")
        obs.enable()
        if use_case == "uc1":
            representation_model_grid(campaigns, CFG)
        else:
            amd = measure_campaigns(CFG, "amd")
            usecase2.representation_model_grid(amd, campaigns, CFG)
        records = trace_records()
        obs.disable()
        totals = stage_totals(records)
        assert set(totals) == {"featurize", "fit", "score"}
        assert all(secs > 0.0 for secs in totals.values())
        # every cell span wraps exactly one fit and one score span
        assert totals["fit"] + totals["score"] <= sum(cell_walls(records).values())

    def test_cell_spans_cover_every_grid_cell(self):
        obs.enable()
        campaigns = measure_campaigns(CFG, "intel")
        representation_model_grid(campaigns, CFG)
        records = trace_records()
        obs.disable()
        expected = {
            f"{rep}+{model}"
            for rep in CFG.representations
            for model in CFG.models
        }
        assert set(cell_walls(records)) == expected

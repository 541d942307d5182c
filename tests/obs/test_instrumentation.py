"""End-to-end instrumentation contract on small UC1/UC2 grids.

Three promises from docs/OBSERVABILITY.md:

* enabling observability is bit-neutral (identical KS results);
* `engine.*` / `cache.*` / `simbench.*` counters are deterministic
  across worker counts;
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

DETERMINISTIC_FAMILIES = ("engine", "cache", "simbench")


def _run_workload(n_workers: int):
    """Measure + grid at *n_workers*; returns (ks list, counter snapshot)."""
    cfg = replace(CFG, n_workers=n_workers)
    campaigns = measure_campaigns(cfg, "intel")
    grid = representation_model_grid(campaigns, cfg)
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

"""Tests for the shared-featurization LOGO evaluation engine.

The engine's contract is sharing without drift: designs must reproduce
the naive per-cell featurization bit for bit, memoized fold vectors must
equal freshly computed ones, and worker count must never change results.
"""

import numpy as np
import pytest

from repro import registry
from repro.core.config import EvalConfig
from repro._validation import check_random_state
from repro.core.engine import CrossSystemDesign, FewRunsDesign, logo_fold_vectors
from repro.core.evaluation import evaluate_cross_system, evaluate_few_runs
from repro.core.features import FeatureConfig, profile_features
from repro.core.representations import (
    HistogramRepresentation,
    PearsonRndRepresentation,
    PyMaxEntRepresentation,
)
from repro.ml.boosting import GradientBoostingRegressor
from repro.errors import ValidationError
from repro.ml.knn import KNNRegressor
from repro.parallel.seeding import seed_for
from repro.simbench.runner import measure_all

BENCHES = ("npb/cg", "npb/is", "npb/bt", "rodinia/heartwall", "parsec/canneal")


@pytest.fixture(scope="module")
def small_intel():
    return measure_all("intel", benchmarks=BENCHES, n_runs=80, root_seed=11)


@pytest.fixture(scope="module")
def small_amd():
    return measure_all("amd", benchmarks=BENCHES, n_runs=80, root_seed=11)


class TestEncodingKeys:
    def test_moment_representations_share_encoding(self):
        assert (
            PyMaxEntRepresentation().encoding_key
            == PearsonRndRepresentation().encoding_key
        )

    def test_histogram_key_tracks_grid(self):
        a = HistogramRepresentation()
        assert a.encoding_key != PearsonRndRepresentation().encoding_key
        assert "histogram" in a.encoding_key

    def test_quantile_key_tracks_size(self):
        q = registry.representation("quantile")
        assert q.encoding_key == f"quantile:{q.n_quantiles}"


class TestFewRunsDesign:
    def test_rows_rebuild_from_the_seed_streams(self, small_intel):
        rep = PearsonRndRepresentation()
        design = FewRunsDesign(small_intel, n_probe_runs=8, n_replicas=3, seed=5)
        X, Y, groups = design.rows(rep)
        names = sorted(small_intel)
        assert list(groups) == [name for name in names for _ in range(3)]
        for i, name in enumerate(names[:2]):
            campaign = small_intel[name]
            rng = check_random_state(seed_for(5, "probe", name, "8"))
            target = rep.encode(campaign.relative_times())
            for r in range(3):
                probe = campaign.sample_runs(8, rng)
                assert np.array_equal(
                    X[3 * i + r], profile_features(probe, FeatureConfig())
                )
                assert np.array_equal(Y[3 * i + r], target)

    def test_target_matrix_cached_per_encoding(self, small_intel):
        design = FewRunsDesign(small_intel, n_probe_runs=8, n_replicas=2)
        _, Y1, _ = design.rows(PyMaxEntRepresentation())
        _, Y2, _ = design.rows(PearsonRndRepresentation())
        assert Y1 is Y2  # shared encoding -> same cached matrix
        _, Yh, _ = design.rows(HistogramRepresentation())
        assert Yh.shape[1] != Y1.shape[1]

    def test_fold_vector_cache_hits_are_identical(self, small_intel):
        design = FewRunsDesign(small_intel, n_probe_runs=8, n_replicas=2)
        model = KNNRegressor(3, metric="cosine")
        v1 = design.fold_vectors(model, PyMaxEntRepresentation(), model_key="knn3")
        v2 = design.fold_vectors(model, PearsonRndRepresentation(), model_key="knn3")
        assert v1 is v2  # same (model, encoding) pair
        fresh = design.fold_vectors(model, PearsonRndRepresentation(), model_key=None)
        for bench in v1:
            assert np.array_equal(v1[bench], fresh[bench])


class TestCrossSystemDesign:
    def test_rows_rebuild_from_the_seed_streams(self, small_amd, small_intel):
        rep = HistogramRepresentation()
        design = CrossSystemDesign(small_amd, small_intel, n_replicas=3, seed=9)
        X, Y, groups = design.rows(rep)
        names = sorted(small_amd)
        assert list(groups) == [name for name in names for _ in range(3)]
        for i, name in enumerate(names[:2]):
            src = small_amd[name]
            rng = check_random_state(seed_for(9, "xsys", name))
            target = rep.encode(small_intel[name].relative_times())
            for r in range(3):
                # The first replica is the whole source campaign, the
                # rest are half-campaign draws.
                probe = src if r == 0 else src.sample_runs(src.n_runs // 2, rng)
                expected = np.concatenate(
                    [
                        profile_features(probe, FeatureConfig()),
                        rep.encode(probe.relative_times()),
                    ]
                )
                assert np.array_equal(X[3 * i + r], expected)
                assert np.array_equal(Y[3 * i + r], target)

    def test_probe_matrix_matches_naive_concat(self, small_amd, small_intel):
        rep = PearsonRndRepresentation()
        design = CrossSystemDesign(small_amd, small_intel, n_replicas=2)
        _X, _Y, probe, _folds = design._encoded(rep)
        for name in BENCHES:
            expected = np.concatenate(
                [
                    profile_features(small_amd[name], None),
                    rep.encode(small_amd[name].relative_times()),
                ]
            )
            assert np.array_equal(probe[name], expected)


class TestAtLeastTwoBenchmarks:
    """One check where every fold starts, with one message for both use cases."""

    MESSAGE = "leave-one-group-out needs at least two benchmarks, got 1"

    @staticmethod
    def _one(campaigns):
        return {"npb/cg": campaigns["npb/cg"]}

    def test_evaluate_few_runs(self, small_intel):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            evaluate_few_runs(
                self._one(small_intel),
                config=EvalConfig(n_probe_runs=8, n_replicas=2),
            )

    def test_evaluate_cross_system(self, small_amd, small_intel):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            evaluate_cross_system(
                self._one(small_amd), small_intel, config=EvalConfig(n_replicas=2)
            )

    def test_evaluate_cross_system_on_a_prebuilt_design(self, small_amd, small_intel):
        design = CrossSystemDesign(self._one(small_amd), small_intel, n_replicas=2)
        with pytest.raises(ValidationError, match=self.MESSAGE):
            evaluate_cross_system(config=EvalConfig(), design=design)

    @pytest.mark.parametrize("use_case", ["uc1", "uc2"])
    def test_grids(self, small_amd, small_intel, use_case):
        from repro.experiments import usecase1, usecase2
        from repro.experiments.config import ExperimentConfig

        cfg = ExperimentConfig(
            benchmarks=("npb/cg",), n_probe_runs=8, n_replicas_uc1=2, models=("knn",)
        )
        with pytest.raises(ValidationError, match=self.MESSAGE):
            if use_case == "uc1":
                usecase1.representation_model_grid(self._one(small_intel), cfg)
            else:
                usecase2.representation_model_grid(
                    self._one(small_amd), self._one(small_intel), cfg
                )

    def test_logo_fold_vectors(self, small_intel):
        design = FewRunsDesign(self._one(small_intel), n_probe_runs=8, n_replicas=2)
        X, Y, groups = design.rows(PearsonRndRepresentation())
        with pytest.raises(ValidationError, match=self.MESSAGE):
            logo_fold_vectors(
                X, Y, groups, design.probe_features, KNNRegressor(1)
            )

    def test_no_common_benchmark_keeps_its_own_error(self, small_amd):
        with pytest.raises(ValidationError, match="share no benchmarks"):
            evaluate_cross_system(small_amd, {}, config=EvalConfig())


class TestWorkerDeterminism:
    """n_workers must never change results (bit-identical fan-out)."""

    def test_logo_fold_vectors_serial_vs_parallel(self, small_intel):
        rep = PearsonRndRepresentation()
        design = FewRunsDesign(small_intel, n_probe_runs=8, n_replicas=2)
        X, Y, groups = design.rows(rep)
        model = KNNRegressor(3, metric="cosine")
        serial = logo_fold_vectors(
            X, Y, groups, design.probe_features, model, n_workers=1
        )
        parallel = logo_fold_vectors(
            X, Y, groups, design.probe_features, model, n_workers=2
        )
        assert sorted(serial) == sorted(parallel)
        for bench in serial:
            assert np.array_equal(serial[bench], parallel[bench])

    def test_evaluate_few_runs_serial_vs_parallel(self, small_intel):
        kw = dict(
            representation=PearsonRndRepresentation(),
            model="knn",
            n_probe_runs=8,
            n_replicas=2,
        )
        t1 = evaluate_few_runs(small_intel, config=EvalConfig(n_workers=1, **kw))
        t2 = evaluate_few_runs(small_intel, config=EvalConfig(n_workers=2, **kw))
        assert np.array_equal(np.asarray(t1["ks"]), np.asarray(t2["ks"]))

    def test_evaluate_cross_system_serial_vs_parallel(self, small_amd, small_intel):
        kw = dict(
            representation=HistogramRepresentation(),
            model="knn",
            n_replicas=2,
        )
        t1 = evaluate_cross_system(
            small_amd,
            small_intel,
            config=EvalConfig(n_workers=1, **kw),
        )
        t2 = evaluate_cross_system(
            small_amd,
            small_intel,
            config=EvalConfig(n_workers=2, **kw),
        )
        assert np.array_equal(np.asarray(t1["ks"]), np.asarray(t2["ks"]))

    def test_stateful_generator_model_stays_serial(self, small_intel):
        from repro.core.engine import _wants_serial

        assert _wants_serial(
            KNNRegressor(3, metric="cosine")
        ) is False
        rf_like = KNNRegressor(3, metric="cosine")
        rf_like.rng = np.random.default_rng(0)
        assert _wants_serial(rf_like) is True
        # Hist boosting fits from the binned codes alone, row
        # subsampling included; only a stateful generator keeps a model
        # serial.
        assert not _wants_serial(GradientBoostingRegressor(2, subsample=0.5, tree_method="hist"))
        assert not _wants_serial(GradientBoostingRegressor(2, tree_method="hist"))
        assert _wants_serial(
            GradientBoostingRegressor(2, rng=np.random.default_rng(0), tree_method="hist")
        )

    def test_generator_seeded_boosting_stays_serial(self, small_intel):
        # A stateful Generator keeps even otherwise lockstep-capable hist
        # boosting in-process, one fold per task: results and the
        # generator's final state do not depend on n_workers.
        rep = PearsonRndRepresentation()
        design = FewRunsDesign(small_intel, n_probe_runs=8, n_replicas=2)
        X, Y, groups = design.rows(rep)
        runs = []
        for n_workers in (1, 2):
            model = GradientBoostingRegressor(
                5, max_depth=3, colsample_bytree=0.5,
                rng=np.random.default_rng(3), tree_method="hist",
            )
            vectors = logo_fold_vectors(
                X, Y, groups, design.probe_features, model, n_workers=n_workers
            )
            runs.append((vectors, model.rng.random()))
        (serial, after_serial), (pooled, after_pooled) = runs
        assert after_serial == after_pooled
        for bench in serial:
            assert np.array_equal(serial[bench], pooled[bench])


class TestHistEngine:
    """Engine integration of the pre-binned histogram kernel."""

    def test_rf_hist_serial_vs_parallel(self, small_intel):
        from repro.ml.forest import RandomForestRegressor

        rep = PearsonRndRepresentation()
        design = FewRunsDesign(small_intel, n_probe_runs=8, n_replicas=2)
        X, Y, groups = design.rows(rep)
        model = RandomForestRegressor(10, rng=7, tree_method="hist")
        serial = logo_fold_vectors(
            X, Y, groups, design.probe_features, model, n_workers=1
        )
        parallel = logo_fold_vectors(
            X, Y, groups, design.probe_features, model, n_workers=2
        )
        assert sorted(serial) == sorted(parallel)
        for bench in serial:
            assert np.array_equal(serial[bench], parallel[bench])

    @staticmethod
    def _lockstep_case(small_intel):
        rep = PearsonRndRepresentation()
        design = FewRunsDesign(small_intel, n_probe_runs=8, n_replicas=2)
        X, Y, groups = design.rows(rep)
        model = GradientBoostingRegressor(
            10, max_depth=3, colsample_bytree=0.5, rng=7, tree_method="hist"
        )
        return X, Y, groups, design.probe_features, model

    def test_gb_lockstep_matches_per_fold_path(self, small_intel, monkeypatch):
        from repro.core import engine

        X, Y, groups, probes, model = self._lockstep_case(small_intel)
        # 5 folds: one group in-process, uneven groups on 2 and 3
        # workers, and more workers than folds (one fold per group).
        lockstep = {
            n_workers: logo_fold_vectors(X, Y, groups, probes, model, n_workers=n_workers)
            for n_workers in (1, 2, 3, 6)
        }
        # Disable lockstep so the engine falls back to the per-fold hist
        # loop; every route must be bit-identical.
        monkeypatch.setattr(engine, "can_lockstep", lambda *a: False)
        per_fold = logo_fold_vectors(X, Y, groups, probes, model, n_workers=1)
        for n_workers, vectors in lockstep.items():
            assert list(vectors) == list(per_fold), n_workers
            for bench in per_fold:
                assert np.array_equal(vectors[bench], per_fold[bench]), (n_workers, bench)

    def test_row_subsampled_boosting_is_worker_independent(self, small_intel):
        # Row subsampling runs the lockstep on the pool like any seeded
        # hist boosting; the digest was recorded when these folds were
        # fitted serially from the float64 rows.
        import hashlib

        X, Y, groups, probes, _ = self._lockstep_case(small_intel)
        model = GradientBoostingRegressor(
            10, max_depth=3, subsample=0.5, colsample_bytree=0.5, rng=7,
            tree_method="hist",
        )
        runs = [
            logo_fold_vectors(X, Y, groups, probes, model, n_workers=n_workers)
            for n_workers in (1, 2)
        ]
        for vectors in runs:
            stacked = np.stack([vectors[bench] for bench in sorted(vectors)])
            digest = hashlib.sha256(stacked.tobytes()).hexdigest()[:16]
            assert digest == "307a592d6a14d2d8"

    @pytest.mark.parametrize("n_workers", [2, 6])
    def test_pooled_lockstep_sends_one_task_per_worker(
        self, small_intel, monkeypatch, n_workers
    ):
        from repro.parallel.worker_pool import WorkerPool

        X, Y, groups, probes, model = self._lockstep_case(small_intel)
        sent = []
        original = WorkerPool.map

        def spy(pool, fn, items, **kwargs):
            items = list(items)
            sent.append(len(items))
            return original(pool, fn, items, **kwargs)

        monkeypatch.setattr(WorkerPool, "map", spy)
        logo_fold_vectors(X, Y, groups, probes, model, n_workers=n_workers)
        # A fallback to in-process lockstep would send nothing.
        assert sent == [min(n_workers, len(probes))]

    def test_design_caches_binned_matrix(self, small_intel):
        from repro.ml.forest import RandomForestRegressor

        design = FewRunsDesign(small_intel, n_probe_runs=8, n_replicas=2)
        rep = PearsonRndRepresentation()
        a = RandomForestRegressor(5, rng=1, tree_method="hist")
        b = RandomForestRegressor(8, rng=2, tree_method="hist")
        design.fold_vectors(a, rep, n_workers=1)
        design.fold_vectors(b, rep, n_workers=1)
        # One X (uc1 shares it across encodings) -> one cached binning.
        assert len(design._binned) == 1

    @pytest.mark.parametrize("model", ["rf", "xgboost"])
    def test_ks_drift_vs_exact_bounded(self, small_intel, model):
        from repro.core.config import EvalConfig

        tables = {
            tm: evaluate_few_runs(
                small_intel,
                config=EvalConfig(
                    representation="pearsonrnd",
                    model=model,
                    n_probe_runs=8,
                    n_replicas=2,
                    tree_method=tm,
                ),
            )
            for tm in ("exact", "hist")
        }
        drift = np.abs(
            np.asarray(tables["hist"]["ks"]) - np.asarray(tables["exact"]["ks"])
        )
        # Binning is lossy on continuous representation features, so the
        # kernels may disagree on near-tie splits.  This 5-benchmark
        # fixture (10 training rows) amplifies each disagreement far
        # beyond the bench grid's regime (grid-wide: max 0.083, mean
        # 0.013 — see EXPERIMENTS.md); the bounds here only guard
        # against wholesale divergence.
        assert drift.max() < 0.2
        assert drift.mean() < 0.08

    def test_knn_ignores_tree_method(self, small_intel):
        from repro.core.config import EvalConfig

        tables = {
            tm: evaluate_few_runs(
                small_intel,
                config=EvalConfig(
                    representation="pearsonrnd",
                    model="knn",
                    n_probe_runs=8,
                    n_replicas=2,
                    tree_method=tm,
                ),
            )
            for tm in ("exact", "hist")
        }
        assert np.array_equal(
            np.asarray(tables["hist"]["ks"]), np.asarray(tables["exact"]["ks"])
        )


class TestDesignReuseMatchesPerCellEvaluation:
    def test_shared_design_equals_fresh_evaluations(self, small_intel):
        design = FewRunsDesign(small_intel, n_probe_runs=8, n_replicas=2, seed=616161)
        for rep_name in ("histogram", "pymaxent", "pearsonrnd"):
            rep = registry.representation(rep_name)
            shared = evaluate_few_runs(
                None,
                config=EvalConfig(representation=rep, model="knn"),
                design=design,
            )
            fresh = evaluate_few_runs(
                small_intel,
                config=EvalConfig(
                    representation=rep,
                    model="knn",
                    n_probe_runs=8,
                    n_replicas=2,
                ),
            )
            assert np.array_equal(
                np.asarray(shared["ks"]), np.asarray(fresh["ks"])
            ), rep_name

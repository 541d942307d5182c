"""Tests for the LOGO evaluation protocol."""

import numpy as np
import pytest

from repro import registry
from repro.core.config import EvalConfig
from repro.core.evaluation import (
    MODELS,
    evaluate_cross_system,
    evaluate_few_runs,
    score_fold_vectors,
    score_vector_sets,
    summarize_ks,
)
from repro.core.representations import (
    HistogramRepresentation,
    PearsonRndRepresentation,
)
from repro.errors import ValidationError
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNNRegressor


class TestModelRegistry:
    def test_paper_models_registered(self):
        assert set(MODELS) == {"knn", "rf", "xgboost"}

    def test_knn_is_paper_configuration(self):
        m = registry.model("knn")
        assert isinstance(m, KNNRegressor)
        assert m.n_neighbors == 15
        assert m.metric == "cosine"

    def test_types(self):
        assert isinstance(registry.model("rf"), RandomForestRegressor)
        assert isinstance(registry.model("XGBoost"), GradientBoostingRegressor)

    def test_unknown(self):
        with pytest.raises(ValidationError):
            registry.model("svm")

    def test_fresh_instances(self):
        assert registry.model("knn") is not registry.model("knn")


class TestEvaluateFewRuns:
    @pytest.fixture(scope="class")
    def table(self, intel_campaigns):
        return evaluate_few_runs(
            intel_campaigns,
            config=EvalConfig(
                representation=PearsonRndRepresentation(),
                model="knn",
                n_probe_runs=10,
                n_replicas=3,
            ),
        )

    def test_one_row_per_benchmark(self, table, intel_campaigns):
        assert len(table) == len(intel_campaigns)
        assert sorted(table["benchmark"].tolist()) == sorted(intel_campaigns)

    def test_ks_in_unit_interval(self, table):
        ks = table["ks"]
        assert np.all((ks >= 0.0) & (ks <= 1.0))

    def test_prediction_nontrivial(self, table):
        """Mean KS must beat the trivial 'predict nothing useful' bound:
        a uniform-over-support prediction scores > 0.5 on narrow
        benchmarks."""
        assert float(np.mean(table["ks"])) < 0.45

    def test_deterministic(self, intel_campaigns, table):
        again = evaluate_few_runs(
            intel_campaigns,
            config=EvalConfig(
                representation=PearsonRndRepresentation(),
                model="knn",
                n_probe_runs=10,
                n_replicas=3,
            ),
        )
        assert np.allclose(table["ks"], again["ks"])

    def test_summary(self, table):
        s = summarize_ks(table)
        assert s.best <= s.p25 <= s.median <= s.p75 <= s.worst
        assert s.n == len(table)


class TestEvaluateCrossSystem:
    def test_basic(self, amd_campaigns, intel_campaigns):
        table = evaluate_cross_system(
            amd_campaigns,
            intel_campaigns,
            config=EvalConfig(
                representation=PearsonRndRepresentation(),
                model="knn",
                n_replicas=2,
            ),
        )
        assert len(table) == len(amd_campaigns)
        assert np.all((table["ks"] >= 0.0) & (table["ks"] <= 1.0))
        assert float(np.mean(table["ks"])) < 0.5

    def test_requires_common_benchmarks(self, amd_campaigns):
        with pytest.raises(ValidationError):
            evaluate_cross_system(
                amd_campaigns,
                {},
                config=EvalConfig(representation=PearsonRndRepresentation(), model="knn"),
            )


class TestBatchedScoring:
    """score_vector_sets must be bit-identical to per-set scoring."""

    @pytest.fixture()
    def measured(self, rng):
        return {
            "npb/cg": 1.0 + 0.02 * rng.normal(size=400),
            "npb/is": 1.0 + 0.05 * rng.standard_exponential(size=400),
            "parsec/canneal": 1.0 + 0.03 * rng.normal(size=400),
        }

    @staticmethod
    def _vector_sets(rng, measured, n_dims, n_sets=3):
        return [
            {
                bench: np.array([1.0, 0.03, 0.1, 3.2][:n_dims])
                + 0.01 * rng.normal(size=n_dims)
                for bench in measured
            }
            for _ in range(n_sets)
        ]

    def test_pearsonrnd_matches_sequential(self, rng, measured):
        rep = PearsonRndRepresentation()
        sets = self._vector_sets(rng, measured, rep.n_dims)
        batched = score_vector_sets(sets, rep, measured, seed=7)
        for vectors, tab in zip(sets, batched):
            ref = score_fold_vectors(vectors, rep, measured, seed=7)
            assert list(tab["benchmark"]) == list(ref["benchmark"])
            assert np.array_equal(np.asarray(tab["ks"]), np.asarray(ref["ks"]))

    def test_default_path_matches_sequential(self, rng, measured):
        rep = HistogramRepresentation()
        sets = [
            {
                bench: np.abs(rng.normal(size=rep.n_dims)) + 0.1
                for bench in measured
            }
            for _ in range(2)
        ]
        batched = score_vector_sets(sets, rep, measured, seed=7)
        for vectors, tab in zip(sets, batched):
            ref = score_fold_vectors(vectors, rep, measured, seed=7)
            assert np.array_equal(np.asarray(tab["ks"]), np.asarray(ref["ks"]))

    def test_empty_sets(self, measured):
        assert score_vector_sets([], PearsonRndRepresentation(), measured, seed=7) == []

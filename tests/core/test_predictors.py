"""Tests for the two prediction pipelines."""

import numpy as np
import pytest

from repro.core.engine import CrossSystemDesign, FewRunsDesign
from repro.core.predictors import CrossSystemPredictor, FewRunsPredictor
from repro.core.representations import HistogramRepresentation, PearsonRndRepresentation
from repro.errors import NotFittedError, ValidationError
from repro.ml.knn import KNNRegressor


class TestBuildFewRunsRows:
    """Use-case-1 training rows, as ``FewRunsDesign(...).rows`` builds them."""

    def test_row_counts_and_groups(self, intel_campaigns):
        rep = PearsonRndRepresentation()
        X, Y, groups = FewRunsDesign(
            intel_campaigns, n_probe_runs=5, n_replicas=3
        ).rows(rep)
        n_bench = len(intel_campaigns)
        assert X.shape[0] == n_bench * 3
        assert Y.shape == (n_bench * 3, 4)
        assert X.shape[1] == 68 * 4
        for name in intel_campaigns:
            assert np.sum(groups == name) == 3

    def test_targets_identical_within_group(self, intel_campaigns):
        rep = PearsonRndRepresentation()
        _, Y, groups = FewRunsDesign(
            intel_campaigns, n_probe_runs=5, n_replicas=3
        ).rows(rep)
        name = next(iter(intel_campaigns))
        rows = Y[groups == name]
        assert np.allclose(rows, rows[0])

    def test_deterministic(self, intel_campaigns):
        rep = PearsonRndRepresentation()
        X1, _, _ = FewRunsDesign(intel_campaigns, n_probe_runs=5, n_replicas=2).rows(rep)
        X2, _, _ = FewRunsDesign(intel_campaigns, n_probe_runs=5, n_replicas=2).rows(rep)
        assert np.array_equal(X1, X2)

    def test_too_few_runs_rejected(self, intel_campaigns):
        rep = PearsonRndRepresentation()
        with pytest.raises(ValidationError):
            FewRunsDesign(intel_campaigns, n_probe_runs=10_000).rows(rep)


class TestFewRunsPredictor:
    def test_end_to_end(self, intel_campaigns, rng):
        pred = FewRunsPredictor(n_probe_runs=10, n_replicas=3).fit(
            intel_campaigns, exclude=("spec_omp/376",)
        )
        probe = intel_campaigns["spec_omp/376"].sample_runs(10, rng)
        dist = pred.predict_distribution(probe)
        s = dist.sample(500, rng=rng)
        assert np.isfinite(s).all()
        # Relative-time predictions live near 1.0.
        assert 0.8 < s.mean() < 1.2

    def test_unfitted_raises(self, intel_campaigns, rng):
        probe = intel_campaigns["npb/bt"].sample_runs(10, rng)
        with pytest.raises(NotFittedError):
            FewRunsPredictor().predict_vector(probe)

    def test_excluding_everything_raises(self, intel_campaigns):
        with pytest.raises(ValidationError):
            FewRunsPredictor().fit(
                intel_campaigns, exclude=tuple(intel_campaigns)
            )

    def test_prediction_quality_narrow_vs_wide(self, intel_campaigns, rng):
        """A held-out narrow benchmark must be predicted much narrower
        than a held-out wide one — the core paper claim at pipeline
        level."""
        results = {}
        for bench in ("rodinia/heartwall", "spec_accel/303"):
            pred = FewRunsPredictor(n_probe_runs=10, n_replicas=3).fit(
                intel_campaigns, exclude=(bench,)
            )
            probe = intel_campaigns[bench].sample_runs(10, rng)
            results[bench] = pred.predict_vector(probe)[1]  # predicted std
        # With the tiny 12-benchmark test roster, kNN shrinks toward the
        # global mean, so require a clear but not paper-scale separation.
        assert results["rodinia/heartwall"] < 0.75 * results["spec_accel/303"]

    def test_histogram_representation_pipeline(self, intel_campaigns, rng):
        pred = FewRunsPredictor(
            representation=HistogramRepresentation(), n_probe_runs=10, n_replicas=3
        ).fit(intel_campaigns, exclude=("npb/cg",))
        probe = intel_campaigns["npb/cg"].sample_runs(10, rng)
        dist = pred.predict_distribution(probe)
        assert np.isfinite(dist.sample(100, rng=rng)).all()


class TestConstructorsRejectRegistryNames:
    """Registry names go through ``from_config``; the constructors take
    instances and reject a name before any fitting starts."""

    @pytest.mark.parametrize("cls", [FewRunsPredictor, CrossSystemPredictor])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model": "knn"},
            {"representation": "histogram"},
            {"model": "knn", "representation": "histogram"},
        ],
    )
    def test_name_rejected(self, cls, kwargs):
        with pytest.raises(ValidationError, match=r"from_config\(PredictConfig"):
            cls(**kwargs)


class TestBuildCrossSystemRows:
    """Use-case-2 training rows, as ``CrossSystemDesign(...).rows`` builds them."""

    def test_feature_layout(self, amd_campaigns, intel_campaigns):
        rep = PearsonRndRepresentation()
        X, Y, groups = CrossSystemDesign(
            amd_campaigns, intel_campaigns, n_replicas=2
        ).rows(rep)
        # 75 AMD metrics x 4 moments + 4 distribution moments.
        assert X.shape[1] == 75 * 4 + 4
        assert Y.shape[1] == 4
        assert X.shape[0] == len(amd_campaigns) * 2

    def test_disjoint_campaigns_rejected(self, amd_campaigns):
        rep = PearsonRndRepresentation()
        with pytest.raises(ValidationError):
            CrossSystemDesign(amd_campaigns, {}).rows(rep)


class TestCrossSystemPredictor:
    def test_end_to_end(self, amd_campaigns, intel_campaigns, rng):
        bench = "parsec/canneal"
        pred = CrossSystemPredictor(n_replicas=2).fit(
            amd_campaigns, intel_campaigns, exclude=(bench,)
        )
        dist = pred.predict_distribution(amd_campaigns[bench])
        s = dist.sample(500, rng=rng)
        assert np.isfinite(s).all()
        assert 0.8 < s.mean() < 1.2

    def test_unfitted_raises(self, amd_campaigns):
        with pytest.raises(NotFittedError):
            CrossSystemPredictor().predict_vector(amd_campaigns["npb/bt"])

    def test_custom_model_injected(self, amd_campaigns, intel_campaigns):
        pred = CrossSystemPredictor(
            model=KNNRegressor(3, metric="euclidean"), n_replicas=2
        ).fit(amd_campaigns, intel_campaigns)
        assert isinstance(pred.model_, KNNRegressor)
        assert pred.model_.n_neighbors == 3

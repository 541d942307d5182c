"""The stable API surface: configs and the unified registry.

Covers the contract: evaluations take ``config=EvalConfig(...)`` and
nothing else (the 2.x bare-keyword shims were removed in 3.0.0); the
config path is warning-free; ``repro.registry`` is the one lookup, with
did-you-mean diagnostics.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro import (
    CrossSystemPredictor,
    EvalConfig,
    FewRunsPredictor,
    PredictConfig,
    evaluate_cross_system,
    evaluate_few_runs,
    registry,
)
from repro.core.representations import PearsonRndRepresentation
from repro.errors import ValidationError
from repro.ml.knn import KNNRegressor
from repro.simbench import measure_all

ROSTER = ("npb/bt", "npb/cg", "npb/is", "parsec/streamcluster")


@pytest.fixture(scope="module")
def intel_small():
    return measure_all("intel", benchmarks=ROSTER, n_runs=60, n_workers=1)


@pytest.fixture(scope="module")
def amd_small():
    return measure_all("amd", benchmarks=ROSTER, n_runs=60, n_workers=1)


class TestRegistry:
    def test_available_lists_both_kinds(self):
        table = registry.available()
        assert set(table) == {"model", "representation"}
        assert table["model"] == ("knn", "rf", "xgboost")
        assert "pearsonrnd" in table["representation"]
        assert "quantile" in table["representation"]

    def test_available_single_kind(self):
        assert registry.available("model") == ("knn", "rf", "xgboost")

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="registry kind"):
            registry.available("nope")
        with pytest.raises(ValidationError, match="registry kind"):
            registry.create("nope", "knn")

    def test_create_matches_kind_helpers(self):
        assert type(registry.create("model", "knn")) is type(registry.model("knn"))
        assert isinstance(registry.representation("pearsonrnd"), PearsonRndRepresentation)

    def test_representation_kwargs_forwarded(self):
        rep = registry.representation("quantile", n_quantiles=12)
        assert rep.n_dims == 12

    def test_model_rejects_kwargs(self):
        with pytest.raises(ValidationError, match="no keyword"):
            registry.create("model", "knn", metric="cosine")

    def test_did_you_mean(self):
        with pytest.raises(ValidationError, match="did you mean 'knn'"):
            registry.model("knnn")
        with pytest.raises(ValidationError, match="did you mean"):
            registry.representation("pearson")

    def test_cross_kind_hint(self):
        with pytest.raises(ValidationError, match="registered representation"):
            registry.model("pearsonrnd")
        with pytest.raises(ValidationError, match="registered model"):
            registry.representation("knn")

    def test_names_are_case_insensitive(self):
        assert isinstance(registry.model("XGBoost"), type(registry.model("xgboost")))


class TestEvalConfigPath:
    CFG = dict(representation="pearsonrnd", model="knn", n_probe_runs=6, n_replicas=2, seed=321)

    def test_mixing_config_and_legacy_keywords_is_an_error(self, intel_small):
        with pytest.raises(TypeError):
            evaluate_few_runs(
                intel_small, config=EvalConfig(**self.CFG), model="knn"
            )

    def test_legacy_path_requires_representation_and_model(self, intel_small):
        # Without a config there is nothing to evaluate: bare keywords
        # are gone, and a missing config is a typed error.
        with pytest.raises(TypeError):
            evaluate_few_runs(intel_small, representation="pearsonrnd", model="knn")
        with pytest.raises(ValidationError, match="config=EvalConfig"):
            evaluate_few_runs(intel_small)
        with pytest.raises(ValidationError, match="config=EvalConfig"):
            evaluate_cross_system(intel_small, intel_small)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            EvalConfig(n_probe_runs=0)
        with pytest.raises(ValidationError):
            EvalConfig(n_replicas=0)
        with pytest.raises(ValidationError):
            EvalConfig(n_workers=0)

    def test_config_accepts_instances(self, intel_small):
        cfg = EvalConfig(
            representation=PearsonRndRepresentation(),
            model=KNNRegressor(15, metric="cosine"),
            n_probe_runs=6,
            n_replicas=2,
            seed=321,
        )
        by_name = EvalConfig(**self.CFG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t1 = evaluate_few_runs(intel_small, config=cfg)
            t2 = evaluate_few_runs(intel_small, config=by_name)
        assert np.array_equal(np.asarray(t1["ks"]), np.asarray(t2["ks"]))


class TestPredictConfig:
    def test_from_config_matches_legacy_constructor(self, intel_small):
        cfg = PredictConfig(model="knn", representation="pearsonrnd", n_probe_runs=6)
        v2 = FewRunsPredictor.from_config(cfg).fit(intel_small)
        legacy = FewRunsPredictor(n_probe_runs=6).fit(intel_small)
        probe = intel_small["npb/cg"].subset(range(6))
        assert np.array_equal(v2.predict_vector(probe), legacy.predict_vector(probe))

    def test_replica_default_is_per_use_case(self):
        cfg = PredictConfig()
        assert FewRunsPredictor.from_config(cfg).n_replicas == 8
        assert CrossSystemPredictor.from_config(cfg).n_replicas == 4

    def test_cross_system_from_config(self, intel_small, amd_small):
        cfg = PredictConfig(model="knn", representation="pearsonrnd", n_replicas=2)
        v2 = CrossSystemPredictor.from_config(cfg).fit(intel_small, amd_small)
        legacy = CrossSystemPredictor(n_replicas=2).fit(intel_small, amd_small)
        src = intel_small["npb/is"]
        assert np.array_equal(v2.predict_vector(src), legacy.predict_vector(src))


class TestStableSurface:
    def test_v2_names_exported(self):
        for name in ("EvalConfig", "PredictConfig", "registry"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_version_is_v5(self):
        assert repro.__version__.startswith("5.")

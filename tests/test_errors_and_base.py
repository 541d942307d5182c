"""Tests for the exception hierarchy and estimator base plumbing."""

from functools import partial

import numpy as np
import pytest

from repro.errors import (
    ConvergenceError,
    MomentError,
    NotFittedError,
    ReconstructionError,
    ReproError,
    UnknownBenchmarkError,
    UnknownSystemError,
    ValidationError,
)
from repro.ml.base import Regressor, validate_fit_inputs
from repro.ml.binning import BinMapper
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNNRegressor
from repro.ml.tree import RegressionTree


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ValidationError,
            NotFittedError,
            MomentError,
            ReconstructionError,
            ConvergenceError,
            UnknownBenchmarkError,
            UnknownSystemError,
        ):
            assert issubclass(exc, ReproError)

    def test_dual_inheritance_for_catching(self):
        """Library errors are also catchable as their builtin kin."""
        assert issubclass(ValidationError, ValueError)
        assert issubclass(NotFittedError, RuntimeError)
        assert issubclass(UnknownBenchmarkError, KeyError)

    def test_moment_error_is_validation_error(self):
        assert issubclass(MomentError, ValidationError)

    def test_convergence_error_is_reconstruction_error(self):
        assert issubclass(ConvergenceError, ReconstructionError)


class TestValidateFitInputs:
    def test_1d_target_promoted(self, rng):
        X, y = validate_fit_inputs(rng.normal(size=(5, 2)), np.arange(5.0))
        assert y.shape == (5, 1)

    def test_3d_target_rejected(self, rng):
        with pytest.raises(ValueError):
            validate_fit_inputs(rng.normal(size=(5, 2)), np.zeros((5, 2, 2)))

    def test_length_mismatch(self, rng):
        with pytest.raises(ValidationError):
            validate_fit_inputs(rng.normal(size=(5, 2)), np.zeros(4))

    def test_nan_features_rejected(self):
        with pytest.raises(ValidationError):
            validate_fit_inputs([[np.nan]], [1.0])


#: A fresh unfitted instance of every model on every kernel it has.
MODELS = {"knn": lambda: KNNRegressor(3)}
for _method in ("exact", "hist"):
    MODELS[f"tree-{_method}"] = partial(RegressionTree, tree_method=_method)
    MODELS[f"forest-{_method}"] = partial(
        RandomForestRegressor, 3, rng=0, tree_method=_method
    )
    MODELS[f"boosting-{_method}"] = partial(
        GradientBoostingRegressor, 3, rng=0, tree_method=_method
    )


class TestDegenerateTargets:
    """A non-finite or misshapen target is a typed error on every model
    and both fit entries, never a fitted model that predicts NaN."""

    X = np.arange(8.0).reshape(-1, 1)

    @classmethod
    def _entries(cls, name):
        """``fit(X, .)``, plus ``fit_binned(binned X, .)`` for hist models."""
        model = MODELS[name]()
        yield lambda y: model.fit(cls.X, y)
        if name.endswith("-hist"):
            binned = BinMapper().fit_transform(cls.X)
            yield lambda y: model.fit_binned(binned, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_nonfinite_target_rejected(self, name, bad):
        for fit in self._entries(name):
            y = np.arange(8.0)
            y[3] = bad
            with pytest.raises(ValidationError, match="y contains NaN or infinite"):
                fit(y)
            with pytest.raises(ValidationError):
                fit(np.zeros((8, 2, 2)))
            with pytest.raises(ValidationError):
                fit(np.zeros(7))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_finite_target_still_fits(self, name):
        for fit in self._entries(name):
            assert np.isfinite(fit(np.arange(8.0)).predict(self.X)).all()


class TestRegressorBase:
    def test_get_params_reflects_constructor(self):
        m = KNNRegressor(7, metric="euclidean", weights="distance")
        params = m.get_params()
        assert params == {"n_neighbors": 7, "metric": "euclidean", "weights": "distance"}

    def test_clone_roundtrip(self, rng):
        m = KNNRegressor(7, metric="euclidean")
        m.fit(rng.normal(size=(10, 2)), rng.normal(size=10))
        c = m.clone()
        assert type(c) is type(m)
        assert not c.is_fitted
        c.fit(rng.normal(size=(10, 2)), rng.normal(size=10))
        assert c.is_fitted

    def test_is_fitted_flag(self, rng):
        m = KNNRegressor(3)
        assert not m.is_fitted
        m.fit(rng.normal(size=(5, 2)), rng.normal(size=5))
        assert m.is_fitted

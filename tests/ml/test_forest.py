"""Tests for the random forest."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import r2_score
from repro.ml.tree import RegressionTree


class TestRandomForest:
    def test_beats_single_tree_on_noisy_data(self, rng):
        n, d = 400, 10
        X = rng.normal(size=(n, d))
        y = X[:, 0] * 2.0 + np.sin(3 * X[:, 1]) + rng.normal(scale=0.5, size=n)
        Xt = rng.normal(size=(200, d))
        yt = Xt[:, 0] * 2.0 + np.sin(3 * Xt[:, 1])
        tree = RegressionTree().fit(X, y)
        forest = RandomForestRegressor(40, rng=0).fit(X, y)
        r2_tree = r2_score(yt.reshape(-1, 1), tree.predict(Xt))
        r2_forest = r2_score(yt.reshape(-1, 1), forest.predict(Xt))
        assert r2_forest > r2_tree

    def test_reproducible_with_seed(self, rng):
        X = np.asarray(rng.normal(size=(100, 5)))
        y = rng.normal(size=(100, 2))
        Xt = rng.normal(size=(10, 5))
        p1 = RandomForestRegressor(10, rng=42).fit(X, y).predict(Xt)
        p2 = RandomForestRegressor(10, rng=42).fit(X, y).predict(Xt)
        assert np.array_equal(p1, p2)

    def test_different_seeds_differ(self, rng):
        X = np.asarray(rng.normal(size=(100, 5)))
        y = rng.normal(size=100)
        Xt = rng.normal(size=(10, 5))
        p1 = RandomForestRegressor(10, rng=1).fit(X, y).predict(Xt)
        p2 = RandomForestRegressor(10, rng=2).fit(X, y).predict(Xt)
        assert not np.array_equal(p1, p2)

    def test_multi_output_shape(self, rng):
        X = rng.normal(size=(50, 4))
        Y = rng.normal(size=(50, 6))
        m = RandomForestRegressor(5, rng=0).fit(X, Y)
        assert m.predict(X[:7]).shape == (7, 6)

    def test_no_bootstrap_deep_forest_interpolates(self, rng):
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        m = RandomForestRegressor(5, bootstrap=False, max_features=None, rng=0).fit(X, y)
        assert np.allclose(m.predict(X)[:, 0], y, atol=1e-9)

    def test_prediction_is_tree_average(self, rng):
        X = rng.normal(size=(80, 4))
        y = rng.normal(size=80)
        m = RandomForestRegressor(7, rng=0).fit(X, y)
        Xt = rng.normal(size=(5, 4))
        manual = np.mean([t._predict(Xt) for t in m.trees_], axis=0)
        assert np.allclose(m.predict(Xt), manual)

    def test_constant_target(self, rng):
        X = rng.normal(size=(30, 3))
        y = np.full(30, 5.0)
        m = RandomForestRegressor(5, rng=0).fit(X, y)
        assert np.allclose(m.predict(X), 5.0)


class TestTreeStreams:
    def test_fit_order_does_not_change_trees(self, rng):
        # Each tree is a pure function of its spawned seed stream, so
        # fitting the members in reverse reproduces the forest.
        from repro.ml.forest import _fit_one_tree

        X = np.asarray(rng.normal(size=(120, 6)))
        y = rng.normal(size=(120, 3))
        Xt = rng.normal(size=(15, 6))
        forest = RandomForestRegressor(8, rng=42).fit(X, y)
        gen = np.random.default_rng(42)
        seeds = np.random.SeedSequence(gen.integers(0, 2**63 - 1)).spawn(8)
        params = {"max_depth": None, "min_samples_split": 2,
                  "min_samples_leaf": 1, "max_features": "sqrt"}
        trees = [_fit_one_tree(X, y, params, True, seq) for seq in seeds[::-1]]
        for member, tree in zip(forest.trees_, trees[::-1]):
            assert np.array_equal(member._predict(Xt), tree._predict(Xt))

    def test_no_tree_level_jobs(self):
        with pytest.raises(TypeError):
            RandomForestRegressor(4, rng=0, n_jobs=2)
        assert "n_jobs" not in RandomForestRegressor(4).clone().get_params()

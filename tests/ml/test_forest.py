"""Tests for the random forest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 50),
        d=st.integers(1, 9),
        k=st.sampled_from([1, 4]),
        n_trees=st.integers(1, 6),
        max_features=st.sampled_from(["sqrt", 0.5, None, 2]),
        bootstrap=st.booleans(),
        min_leaf=st.integers(1, 3),
        max_depth=st.sampled_from([None, 3]),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_order_does_not_change_trees(
        self, n, d, k, n_trees, max_features, bootstrap, min_leaf, max_depth,
        ties, seed,
    ):
        # The forest grows its members in lockstep; each must equal the
        # tree grown alone from its spawned seed, bootstrap rows drawn
        # first, whatever order the solo trees are grown in.
        r = np.random.default_rng(seed)
        if ties:
            X = r.integers(0, 4, size=(n, d)).astype(float)
            Y = r.integers(0, 3, size=(n, k)).astype(float)
        else:
            X, Y = r.normal(size=(n, d)), r.normal(size=(n, k))
        params = {"max_depth": max_depth, "min_samples_leaf": min_leaf,
                  "max_features": max_features}
        forest = RandomForestRegressor(
            n_trees, bootstrap=bootstrap, rng=seed, **params
        ).fit(X, Y)
        gen = np.random.default_rng(seed)
        seeds = np.random.SeedSequence(gen.integers(0, 2**63 - 1)).spawn(n_trees)
        for member, seq in reversed(list(zip(forest.trees_, seeds))):
            tree_rng = np.random.default_rng(seq)
            rows = tree_rng.integers(0, n, size=n) if bootstrap else None
            solo = RegressionTree(rng=tree_rng, **params).fit(X, Y, sample_indices=rows)
            for name in ("_feature", "_threshold", "_left", "_right", "_value"):
                assert getattr(member, name).tobytes() == getattr(solo, name).tobytes()

    def test_no_tree_level_jobs(self):
        with pytest.raises(TypeError):
            RandomForestRegressor(4, rng=0, n_jobs=2)
        assert "n_jobs" not in RandomForestRegressor(4).clone().get_params()

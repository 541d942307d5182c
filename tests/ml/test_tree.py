"""Tests for the CART regression tree."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml.tree import RegressionTree


class TestFitting:
    def test_perfect_split_on_step_function(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        t = RegressionTree(max_depth=1).fit(X, y)
        pred = t.predict(X)[:, 0]
        assert np.allclose(pred, y)
        assert t.node_count == 3

    def test_multi_output_split_criterion(self):
        # Output 1 is constant; output 2 has a step: the tree must split
        # on the step because total SSE sums over outputs.
        X = np.linspace(0, 1, 40).reshape(-1, 1)
        Y = np.column_stack([np.ones(40), (X[:, 0] > 0.3) * 5.0])
        t = RegressionTree(max_depth=2).fit(X, Y)
        assert np.allclose(t.predict(X), Y, atol=1e-12)

    def test_max_depth_respected(self, rng):
        X = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        t = RegressionTree(max_depth=3).fit(X, y)
        assert t.max_reached_depth <= 3

    def test_max_reached_depth_matches_per_node_reference(self, rng):
        for max_depth, n in ((1, 30), (4, 120), (None, 250)):
            X = rng.normal(size=(n, 3))
            y = rng.normal(size=n)
            t = RegressionTree(max_depth=max_depth, min_samples_leaf=2).fit(X, y)
            depth = np.zeros(t.node_count, dtype=np.intp)
            for nid in range(t.node_count):
                if t._left[nid] >= 0:
                    depth[t._left[nid]] = depth[nid] + 1
                    depth[t._right[nid]] = depth[nid] + 1
            assert t.max_reached_depth == int(depth.max())

    def test_max_reached_depth_single_leaf(self):
        X = np.ones((5, 1))
        y = np.ones(5)
        t = RegressionTree().fit(X, y)
        assert t.max_reached_depth == 0

    def test_min_samples_leaf(self, rng):
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        t = RegressionTree(min_samples_leaf=10).fit(X, y)
        # Count rows per leaf via prediction mapping.
        leaves = {}
        preds = t.predict(X)[:, 0]
        for p in preds:
            leaves[p] = leaves.get(p, 0) + 1
        assert min(leaves.values()) >= 10

    def test_pure_node_not_split(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.ones(10)
        t = RegressionTree().fit(X, y)
        assert t.node_count == 1

    def test_constant_feature_no_split(self):
        X = np.ones((20, 1))
        y = np.arange(20, dtype=float)
        t = RegressionTree().fit(X, y)
        assert t.node_count == 1
        assert t.predict(X)[0, 0] == pytest.approx(y.mean())

    def test_sample_indices_restricts_training(self, rng):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5) * 4.0
        t = RegressionTree(max_depth=2).fit(X, y, sample_indices=np.arange(50))
        # Trained only on the left half (all zeros) -> constant tree.
        assert t.node_count == 1
        assert t.predict([[0.9]])[0, 0] == pytest.approx(0.0)

    def test_negative_sample_indices_name_rows_from_the_end(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=(30, 2))
        rows = rng.integers(0, 30, size=30)
        a = RegressionTree(max_features=2, rng=0).fit(X, y, sample_indices=rows)
        b = RegressionTree(max_features=2, rng=0).fit(X, y, sample_indices=rows - 30)
        for name in ("_feature", "_threshold", "_left", "_right", "_value"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        with pytest.raises(IndexError):
            RegressionTree().fit(X, y, sample_indices=[0, 30])

    def test_duplicate_feature_values_tie_handling(self):
        X = np.array([[1.0], [1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 0.0, 8.0])
        t = RegressionTree().fit(X, y)
        assert t.predict([[1.0]])[0, 0] == pytest.approx(0.0)
        assert t.predict([[2.0]])[0, 0] == pytest.approx(8.0)


class TestPrediction:
    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            RegressionTree().predict(np.ones((1, 2)))

    def test_deep_tree_interpolates_training_data(self, rng):
        X = rng.normal(size=(100, 4))
        y = rng.normal(size=(100, 2))
        t = RegressionTree().fit(X, y)
        assert np.allclose(t.predict(X), y, atol=1e-10)

    def test_feature_subsampling_reproducible(self, rng):
        X = np.asarray(rng.normal(size=(100, 20)))
        y = X @ rng.normal(size=20)
        t1 = RegressionTree(max_features="sqrt", rng=3).fit(X, y)
        t2 = RegressionTree(max_features="sqrt", rng=3).fit(X, y)
        Xt = rng.normal(size=(10, 20))
        assert np.array_equal(t1.predict(Xt), t2.predict(Xt))

    def test_vectorized_traversal_matches_manual(self, rng):
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        t = RegressionTree(max_depth=4).fit(X, y)

        def manual(x):
            nid = 0
            while t._feature[nid] >= 0:
                nid = t._left[nid] if x[t._feature[nid]] <= t._threshold[nid] else t._right[nid]
            return t._value[nid, 0]

        Xt = rng.normal(size=(20, 3))
        pred = t.predict(Xt)[:, 0]
        ref = np.array([manual(x) for x in Xt])
        assert np.allclose(pred, ref)

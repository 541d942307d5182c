"""Focused tests for the batched exact split search.

``best_split`` scores one node holding every row of ``X`` through the
batched scorer, the way a tree that draws candidate columns does (the
chunk's columns are sorted inside the batch).  The property tests pin
the two invariants the kernel rests on: a node scores the same whatever
else shares its batch, and a stable partition of a node's sorted rows
is the order a fresh stable sort of each child's rows gives.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.tree as tree_mod
from repro.ml.tree import (
    RegressionTree,
    _best_splits,
    _feature_chunk,
    _padded,
    _partition_sorted,
    _sorted_rows,
)


def best_split(X, Y, min_leaf=1, presorted=False):
    """``(feature, threshold)`` of one node holding every row, or None."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64).reshape(len(X), -1)
    XT, y32 = _padded(X, Y)
    rows = np.arange(len(X))
    srows = _sorted_rows(XT, rows) if presorted else None
    (split,) = _best_splits(XT, y32, [(rows, srows, np.arange(X.shape[1]))], min_leaf)
    return split


class TestFeatureChunk:
    def test_bounds(self):
        assert _feature_chunk(10, 1) == 512  # tiny problem, max chunk
        assert _feature_chunk(10_000_000, 64) == 8  # huge problem, min chunk

    def test_monotone_in_outputs(self):
        assert _feature_chunk(1000, 4) >= _feature_chunk(1000, 64)


class TestBestSplitChunk:
    def test_finds_obvious_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        Y = np.array([[0.0], [0.0], [10.0], [10.0]])
        feat, thr = best_split(X, Y)
        assert feat == 0
        assert 1.0 <= thr < 2.0

    def test_no_split_on_constant_feature(self):
        X = np.ones((6, 1))
        Y = np.arange(6, dtype=float).reshape(-1, 1)
        assert best_split(X, Y) is None

    def test_min_leaf_blocks_edges(self):
        X = np.arange(6, dtype=float).reshape(-1, 1)
        Y = np.array([[100.0], [0.0], [0.0], [0.0], [0.0], [0.0]])
        # The best unrestricted split isolates row 0, but min_leaf=2
        # forbids a 1-row child.
        _, thr = best_split(X, Y, min_leaf=2)
        assert thr >= 1.0

    def test_picks_best_of_multiple_features(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        # Feature 2 is the true signal.
        Y = (X[:, 2] > 0).astype(float).reshape(-1, 1) * 5.0
        assert best_split(X, Y)[0] == 2

    def test_float32_kernel_matches_float64_choice(self):
        """The float32 scoring must select the same split as an exact
        float64 evaluation on well-separated data."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 5))
        Y = np.column_stack([(X[:, 1] > 0.3) * 3.0, X[:, 1]])
        feat, thr = best_split(X, Y)
        assert feat == 1
        assert thr == pytest.approx(0.3, abs=0.25)

    def test_presorted_rows_give_the_same_split(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 5, size=(40, 9)).astype(float)
        Y = rng.integers(0, 3, size=(40, 4)).astype(float)
        assert best_split(X, Y, presorted=True) == best_split(X, Y)

    def test_chunked_equals_unchunked_tree(self, monkeypatch):
        """Trees must not depend on the chunking boundaries: with and
        without a forced 7-feature chunk, this fixture grows the tree
        whose digest was recorded on the per-node sorting kernel."""
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 40))
        y = X @ rng.normal(size=40)
        unchunked = RegressionTree(max_depth=4).fit(X, y)
        monkeypatch.setattr(tree_mod, "_feature_chunk", lambda n, k: 7)
        chunked = RegressionTree(max_depth=4).fit(X, y)
        for t in (chunked, unchunked):
            h = hashlib.sha256()
            for a in (t._feature, t._threshold, t._left, t._right, t._value):
                h.update(f"{a.dtype.str}{a.shape}".encode())
                h.update(np.ascontiguousarray(a).tobytes())
            assert h.hexdigest()[:16] == "92ff8c4489aa5ca1"


node_sets = st.lists(
    st.tuples(st.integers(2, 40), st.booleans()), min_size=1, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(
    shapes=node_sets,
    d=st.integers(1, 12),
    k=st.sampled_from([1, 3, 32]),
    min_leaf=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_does_not_change_a_node(shapes, d, k, min_leaf, seed):
    """Every node of a batch gets the split it gets scored alone, with
    rows padded to the batch's longest and tie-heavy columns."""
    r = np.random.default_rng(seed)
    n = 50
    X = r.integers(0, 4, size=(n, d)).astype(np.float64)
    Y = r.integers(0, 3, size=(n, k)).astype(np.float64)
    XT, y32 = _padded(X, Y)
    nodes = []
    for size, presorted in shapes:
        rows = r.integers(0, n, size=size)  # repeats, like a bootstrap draw
        cols = r.permutation(d)[: r.integers(1, d + 1)]
        if presorted:
            cols = np.arange(d)
        nodes.append((rows, _sorted_rows(XT, rows) if presorted else None, cols))
    together = _best_splits(XT, y32, nodes, min_leaf)
    alone = [_best_splits(XT, y32, [node], min_leaf)[0] for node in nodes]
    assert together == alone


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    d=st.integers(1, 8),
    levels=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_partition_equals_fresh_sort(n, d, levels, seed):
    """Partitioning a node's sorted rows by a split gives each child the
    rows a fresh stable sort of that child would, over ties and
    repeated rows, level after level."""
    r = np.random.default_rng(seed)
    X = r.integers(0, 3, size=(n, d)).astype(np.float64)
    XT, _ = _padded(X, np.zeros((n, 1)))
    rows = r.integers(0, n, size=n)  # repeats, like a bootstrap draw
    frontier = [(rows, _sorted_rows(XT, rows))]
    for _ in range(levels):
        nxt = []
        for rows, srows in frontier:
            f = r.integers(d)
            left_of_row = np.zeros(n + 1, dtype=bool)
            left_of_row[:n] = X[:, f] <= r.integers(0, 3)
            kids = _partition_sorted(srows, left_of_row)
            go = left_of_row[rows]
            for child, part in ((rows[go], kids[0]), (rows[~go], kids[1])):
                assert np.array_equal(part, _sorted_rows(XT, child))
                nxt.append((child, part))
        frontier = nxt

"""Multi-output CART regression trees with vectorized split search.

The split criterion is total squared-error reduction **summed over all
output dimensions**, so a single tree can predict an entire distribution
representation (histogram bins or moment vectors).  The split search is
vectorized across candidate features in chunks: for each node we sort the
node's rows per feature, build cumulative sums of the targets and squared
targets, and evaluate every admissible split position of every candidate
feature in one broadcast expression — no Python-level loop over split
points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from .._validation import check_positive_int, check_random_state
from ..errors import ValidationError
from .base import Regressor, validate_fit_inputs

__all__ = ["RegressionTree", "TREE_METHODS", "n_candidate_features"]

#: Valid ``tree_method`` values for the tree-based models.
TREE_METHODS = ("exact", "hist")


def check_tree_method(tree_method: str) -> str:
    """Validate a ``tree_method`` option (shared by tree/forest/boosting)."""
    if tree_method not in TREE_METHODS:
        raise ValidationError(
            f"tree_method must be one of {TREE_METHODS}, got {tree_method!r}"
        )
    return tree_method


def n_candidate_features(max_features, d: int) -> int:
    """Resolve a ``max_features`` spec to a per-node candidate count."""
    if max_features is None:
        return d
    if max_features == "sqrt":
        return max(1, int(np.sqrt(d)))
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValidationError(
                f"max_features fraction out of (0,1]: {max_features}"
            )
        return max(1, int(round(max_features * d)))
    return min(d, check_positive_int(max_features, name="max_features"))


def leaf_index(feature, threshold, left, right, X: np.ndarray) -> np.ndarray:
    """Leaf node id of each row of *X* under a tree's flat node arrays.

    Vectorized traversal: all rows advance one level per iteration, left
    where ``X[row, feature] <= threshold``.  Takes the arrays rather than
    a tree so a caller can walk one tree's structure under thresholds
    re-expressed in another scaling.
    """
    node = np.zeros(X.shape[0], dtype=np.intp)
    active = feature[node] >= 0
    while np.any(active):
        rows = np.nonzero(active)[0]
        nid = node[rows]
        go_left = X[rows, feature[nid]] <= threshold[nid]
        node[rows] = np.where(go_left, left[nid], right[nid])
        active[rows] = feature[node[rows]] >= 0
    return node


#: Scratch budget of the split search, in float32 elements.  The cumsum
#: tensor is float32, so 4M floats ~= 16 MB per (chunk, n, k) block.
_SPLIT_BUDGET_FLOATS = 4_000_000


def _feature_chunk(n_rows: int, n_outputs: int) -> int:
    """Features per split-search chunk, targeting ~16 MB of scratch.

    Larger chunks amortize NumPy call overhead (the dominant cost for
    shallow boosted trees); the cap keeps the (chunk, n, k) cumsum tensor
    within the :data:`_SPLIT_BUDGET_FLOATS` memory budget.
    """
    per_feature = max(n_rows * max(n_outputs, 1), 1)
    chunk = _SPLIT_BUDGET_FLOATS // per_feature
    return 8 if chunk < 8 else (512 if chunk > 512 else int(chunk))


#: Minimum (features x outputs) plane size for the row-looped prefix sum.
#: Below this, np.cumsum's per-chain scalar loop wins; above it, one
#: vectorized plane-add per row amortizes far better on a single core.
_PLANE_LOOP_MIN_WIDTH = 768


def _prefix_sums(Ys: np.ndarray) -> np.ndarray:
    """Running sums of ``Ys`` along axis 0, bit-identical to ``np.cumsum``.

    Both branches accumulate each (feature, output) chain in the same
    sequential order, so they produce identical float32 results; the
    choice is purely a speed heuristic.  ``np.cumsum`` iterates chains
    one scalar at a time, which is the dominant cost of the split search
    for wide targets (histogram bins x many features) — there a Python
    loop of SIMD plane-adds over the contiguous trailing (f, k) plane is
    several times faster.
    """
    n = Ys.shape[0]
    if Ys[0].size < _PLANE_LOOP_MIN_WIDTH:
        return np.cumsum(Ys, axis=0)
    out = np.empty_like(Ys)
    out[0] = Ys[0]
    for i in range(1, n):
        np.add(out[i - 1], Ys[i], out=out[i])
    return out


@dataclass
class _NodeTask:
    node_id: int
    indices: np.ndarray
    depth: int


def _best_split_for_chunk(
    Xn: np.ndarray,
    Yn: np.ndarray,
    feat_ids: np.ndarray,
    min_leaf: int,
) -> tuple[float, int, float] | None:
    """Best (score, feature, threshold) within one chunk of features.

    ``Xn`` is the node's (rows, chunk features) matrix and ``Yn`` its
    targets (float64 or pre-cast float32).  ``score`` is the post-split
    total SSE (lower is better); returns None when no admissible split
    exists in the chunk.

    The cumulative-sum/einsum kernel runs in float32: the split search is
    memory-bandwidth-bound and split *selection* only needs enough
    precision to rank candidate positions; leaf values are computed in
    float64 by the caller.
    """
    n = Xn.shape[0]
    # Sort feature-major: per-feature argsort/take walk contiguous rows of
    # the (f, n) matrix instead of strided columns.  Stable sort of a
    # column and of the transposed row agree exactly, so the split choice
    # is unchanged.
    Xf = np.ascontiguousarray(Xn.T)  # (f, n)
    order = np.argsort(Xf, axis=1, kind="stable")
    xs = np.take_along_axis(Xf, order, axis=1)  # (f, n) sorted values
    Y32 = Yn if Yn.dtype == np.float32 else Yn.astype(np.float32)
    Ys = Y32[order.T]  # (n, f, k) targets in per-feature sorted order

    cum_s = _prefix_sums(Ys)  # float32 (n, f, k)
    total_s = cum_s[-1]  # (f, k)
    left_cnt = np.arange(1, n, dtype=np.float32)[:, None]  # (n-1, 1)
    right_cnt = n - left_cnt

    left_sq = np.einsum("ifk,ifk->if", cum_s[:-1], cum_s[:-1])
    right_sum = total_s[None, :, :] - cum_s[:-1]
    right_sq = np.einsum("ifk,ifk->if", right_sum, right_sum)
    # Constant total_q term omitted: minimizing -left_sq/nl - right_sq/nr
    # is equivalent to minimizing the post-split SSE.
    score = -(left_sq / left_cnt + right_sq / right_cnt)  # (n-1, f)

    # Mask inadmissible split positions: ties and min_samples_leaf.
    ties = xs[:, :-1] == xs[:, 1:]  # (f, n-1)
    score[ties.T] = np.inf
    if min_leaf > 1:
        score[: min_leaf - 1] = np.inf
        score[n - min_leaf :] = np.inf
    flat = np.argmin(score)
    pos, fidx = np.unravel_index(flat, score.shape)
    best = float(score[pos, fidx])
    if not np.isfinite(best):
        return None
    threshold = 0.5 * (xs[fidx, pos] + xs[fidx, pos + 1])
    # Guard against midpoint rounding onto the right value.
    if threshold >= xs[fidx, pos + 1]:
        threshold = xs[fidx, pos]
    return best, int(feat_ids[fidx]), float(threshold)


class RegressionTree(Regressor):
    """CART regression tree with multi-output leaves.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (None = grow until pure/underpopulated).
    min_samples_split:
        Minimum rows in a node to attempt a split.
    min_samples_leaf:
        Minimum rows required in each child.
    max_features:
        Per-node feature subsampling: None (all), an int count, a float
        fraction, or ``"sqrt"``.  Randomized per node via *rng* — this is
        the decorrelation knob random forests rely on.
    rng:
        Seed or Generator for feature subsampling.
    tree_method:
        ``"exact"`` (default) grows with the per-node sorted-scan kernel;
        ``"hist"`` grows level-wise on pre-binned uint8 codes
        (:mod:`repro.ml.hist`).  On losslessly binned data the two agree
        whenever float32 rounding cannot flip a split comparison; the
        exact path is bit-stable across releases and stays the tier-1
        default.
    """

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        rng=None,
        tree_method: str = "exact",
    ) -> None:
        if max_depth is not None:
            max_depth = check_positive_int(max_depth, name="max_depth")
        self.max_depth = max_depth
        self.min_samples_split = check_positive_int(
            min_samples_split, name="min_samples_split"
        )
        self.min_samples_leaf = check_positive_int(
            min_samples_leaf, name="min_samples_leaf"
        )
        self.max_features = max_features
        self.rng = rng
        self.tree_method = check_tree_method(tree_method)

    # -- internals ---------------------------------------------------------

    def _n_candidate_features(self, d: int) -> int:
        return n_candidate_features(self.max_features, d)

    def _adopt_grown(self, grown, d: int, k: int) -> None:
        """Install a :class:`~repro.ml.hist.GrownTree`'s flat arrays."""
        self._feature = np.asarray(grown.feature, dtype=np.intp)
        self._threshold = np.asarray(grown.threshold, dtype=np.float64)
        self._left = np.asarray(grown.left, dtype=np.intp)
        self._right = np.asarray(grown.right, dtype=np.intp)
        self._value = np.asarray(grown.value, dtype=np.float64)
        self.n_features_ = d
        self.n_outputs_ = k

    def _fit_hist(self, Xv, yv, sample_indices, gen, binned) -> "RegressionTree":
        """Histogram fit: bin once (unless pre-binned), grow level-wise."""
        from .binning import BinMapper
        from .hist import TreeSpec, grow_trees

        n, d = Xv.shape if binned is None else (binned.n_rows, binned.n_features)
        if Xv is not None and binned is not None and (n, d) != Xv.shape:
            raise ValidationError(
                f"binned matrix is {(n, d)}, X is {Xv.shape}"
            )
        k = yv.shape[1]
        timing = obs.enabled()
        t_fit = time.perf_counter() if timing else 0.0
        if binned is None:
            binned = BinMapper().fit_transform(Xv)
        rows = (
            np.arange(n, dtype=np.intp)
            if sample_indices is None
            else np.asarray(sample_indices, dtype=np.intp)
        )
        n_cand = self._n_candidate_features(d)
        spec = TreeSpec(rows=rows, rng=gen if n_cand < d else None)
        trees, stats = grow_trees(
            binned,
            yv.astype(np.float32),
            yv,
            [spec],
            n_cand=n_cand,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            timing=timing,
        )
        self._adopt_grown(trees[0], d, k)
        if timing:
            stats.emit(1)
            obs.observe("tree.fit_s", time.perf_counter() - t_fit)
        return self

    def fit_binned(self, binned, y, sample_indices=None) -> "RegressionTree":
        """Fit from a :class:`~repro.ml.binning.BinnedMatrix` alone.

        X-free twin of :meth:`fit` for the ``tree_method="hist"`` path:
        pool workers receive the shared uint8 codes plus bin bounds and
        never touch the float64 feature matrix.  Bit-identical to
        ``fit(X, y, sample_indices, binned=binned)``.
        """
        if self.tree_method != "hist":
            raise ValidationError("fit_binned requires tree_method='hist'")
        from .base import validate_binned_targets

        yv = validate_binned_targets(binned, y)
        gen = check_random_state(self.rng)
        return self._fit_hist(None, yv, sample_indices, gen, binned)

    def fit(self, X, y, sample_indices=None, binned=None) -> "RegressionTree":
        """Grow the tree on (X, y).

        ``sample_indices`` optionally restricts training to a row subset
        (used by bagging to avoid copying the feature matrix).  With
        ``tree_method="hist"``, ``binned`` optionally supplies the
        pre-binned :class:`~repro.ml.binning.BinnedMatrix` of *X* so the
        one-time binning pass is shared across trees/rounds/folds.
        """
        Xv, yv = validate_fit_inputs(X, y)
        gen = check_random_state(self.rng)
        if self.tree_method == "hist":
            return self._fit_hist(Xv, yv, sample_indices, gen, binned)
        n, d = Xv.shape
        k = yv.shape[1]
        # Split-kernel timing is sampled only when obs is recording; the
        # flag is latched once per fit so the node loop stays branch-cheap.
        timing = obs.enabled()
        t_fit = time.perf_counter() if timing else 0.0
        split_s = 0.0
        XvT = Xv.T
        root_idx = (
            np.arange(n, dtype=np.intp)
            if sample_indices is None
            else np.asarray(sample_indices, dtype=np.intp)
        )
        n_cand = self._n_candidate_features(d)

        features: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        values: list[np.ndarray] = []

        def new_node() -> int:
            features.append(-1)
            thresholds.append(np.nan)
            lefts.append(-1)
            rights.append(-1)
            values.append(np.zeros(k))
            return len(features) - 1

        stack = [_NodeTask(new_node(), root_idx, 0)]
        while stack:
            task = stack.pop()
            idx = task.indices
            # One float64 gather per node; the float32 view the split
            # kernel needs is a cast of it (gather+cast commute bit for
            # bit), and leaf means are taken only when the node actually
            # becomes a leaf — internal nodes skip the mean entirely.
            Yn = yv[idx]
            if (
                idx.size < self.min_samples_split
                or idx.size < 2 * self.min_samples_leaf
                or (self.max_depth is not None and task.depth >= self.max_depth)
            ):
                values[task.node_id] = Yn.mean(axis=0)
                continue
            # Pure-node shortcut: zero spread in every output (same
            # predicate as allclose(rtol=0, atol=1e-15), minus its
            # temporaries — this check runs once per node).
            if np.abs(Yn - Yn[0]).max() <= 1e-15:
                values[task.node_id] = Yn.mean(axis=0)
                continue

            if n_cand < d:
                cand = gen.choice(d, size=n_cand, replace=False)
            else:
                cand = np.arange(d)
            best: tuple[float, int, float] | None = None
            Yn32 = Yn.astype(np.float32)
            chunk_size = _feature_chunk(idx.size, k)
            t_node = time.perf_counter() if timing else 0.0
            for start in range(0, cand.size, chunk_size):
                chunk = cand[start : start + chunk_size]
                # Gather straight into feature-major (f, n) C-order; the
                # kernel's transpose of this view is then free.
                Xf = XvT[np.ix_(chunk, idx)]
                res = _best_split_for_chunk(
                    Xf.T, Yn32, chunk, self.min_samples_leaf
                )
                if res is not None and (best is None or res[0] < best[0]):
                    best = res
            if timing:
                split_s += time.perf_counter() - t_node
            if best is None:
                values[task.node_id] = Yn.mean(axis=0)
                continue
            _, feat, thr = best
            mask = Xv[idx, feat] <= thr
            left_idx = idx[mask]
            right_idx = idx[~mask]
            if left_idx.size < self.min_samples_leaf or right_idx.size < self.min_samples_leaf:
                values[task.node_id] = Yn.mean(axis=0)
                continue
            lid, rid = new_node(), new_node()
            features[task.node_id] = feat
            thresholds[task.node_id] = thr
            lefts[task.node_id] = lid
            rights[task.node_id] = rid
            stack.append(_NodeTask(lid, left_idx, task.depth + 1))
            stack.append(_NodeTask(rid, right_idx, task.depth + 1))

        self._feature = np.asarray(features, dtype=np.intp)
        self._threshold = np.asarray(thresholds, dtype=np.float64)
        self._left = np.asarray(lefts, dtype=np.intp)
        self._right = np.asarray(rights, dtype=np.intp)
        self._value = np.asarray(values, dtype=np.float64)
        self.n_features_ = d
        self.n_outputs_ = k
        if timing:
            obs.counter("tree.fits")
            obs.counter("tree.nodes", len(features))
            obs.observe("tree.split_search_s", split_s)
            obs.observe("tree.fit_s", time.perf_counter() - t_fit)
        return self

    @property
    def node_count(self) -> int:
        """Total number of nodes (internal + leaves)."""
        return int(self._feature.size)

    @property
    def max_reached_depth(self) -> int:
        """Depth actually reached by the fitted tree.

        Level-order array pass: each iteration expands the whole frontier
        of internal nodes through ``_left``/``_right`` at once, so the
        cost is one vectorized gather per level instead of a Python loop
        over every node.
        """
        if not self.node_count:
            return 0
        left, right = self._left, self._right
        frontier = np.zeros(1, dtype=np.intp)
        depth = -1
        while frontier.size:
            depth += 1
            parents = frontier[left[frontier] >= 0]
            frontier = np.concatenate([left[parents], right[parents]])
        return depth

    def _leaf_index(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id of each row of *X*."""
        return leaf_index(self._feature, self._threshold, self._left, self._right, X)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return self._value[self._leaf_index(X)]

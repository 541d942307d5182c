"""Multi-output CART regression trees with vectorized split search.

The split criterion is total squared-error reduction **summed over all
output dimensions**, so a single tree can predict an entire distribution
representation (histogram bins or moment vectors).  The exact split
search is vectorized across candidate features in chunks and across
nodes in batches: a node's rows come sorted per candidate feature, the
kernel builds cumulative sums of the targets and evaluates every
admissible split position of every candidate feature in one broadcast
expression — no Python-level loop over split points.  One driver,
:func:`grow_exact`, grows a single tree or a whole forest's members
together (see its docstring for how rows get sorted).
"""

from __future__ import annotations

import math
import time

import numpy as np

from .. import obs
from .._validation import check_positive_int, check_random_state
from ..errors import ValidationError
from .base import Regressor, validate_binned_targets, validate_fit_inputs

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


#: Scratch budget of one batched scorer call, in float32 elements: chunks
#: of several nodes share a call while their padded (items, rows,
#: features, outputs) target tensor stays within it (1 MB).  A chunk
#: larger than this on its own is scored alone.
_BATCH_BUDGET_FLOATS = 262_144


#: Minimum (features x outputs) plane size for the row-looped prefix sum.
#: Below this, np.cumsum's per-chain scalar loop wins; above it, one
#: vectorized plane-add per row amortizes far better on a single core.
_PLANE_LOOP_MIN_WIDTH = 768


def _prefix_sums(Ys: np.ndarray) -> np.ndarray:
    """Running sums of ``Ys`` along axis 1, in place; bit-identical to
    ``np.cumsum``.

    Both branches accumulate each (item, feature, output) chain in the
    same sequential order, so they produce identical float32 results;
    the choice is purely a speed heuristic.  ``np.cumsum`` iterates
    chains one scalar at a time, which is the dominant cost of the split
    search for wide targets (histogram bins x many features) — there a
    Python loop of SIMD plane-adds over the trailing (f, k) planes is
    several times faster.
    """
    if Ys[:, 0].size < _PLANE_LOOP_MIN_WIDTH:
        return np.cumsum(Ys, axis=1, out=Ys)
    for i in range(1, Ys.shape[1]):
        np.add(Ys[:, i - 1], Ys[:, i], out=Ys[:, i])
    return Ys


def _score_items(
    xs: np.ndarray, srows: np.ndarray, n_rows: np.ndarray, y32: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best split position of each item of one batch.

    An item is one node's chunk of ``F`` candidate columns: ``xs[b]`` is
    its ``(F, N)`` matrix of column values, each column sorted, and
    ``srows[b]`` the matching rows of ``y32``.  Item ``b`` holds
    ``n_rows[b]`` rows; the rest of its ``N`` pad its end and are masked
    (``srows`` names ``y32``'s zero row there).  Returns each item's best
    post-split score (lower is better; not finite when no position is
    admissible), its split position and its column within the item,
    chosen position-major: the lowest score, then the lowest position,
    then the lowest column.

    The cumulative-sum/einsum kernel runs in float32: the split search is
    memory-bandwidth-bound and split *selection* only needs enough
    precision to rank candidate positions; leaf values are computed in
    float64 by the caller.  Every item's arithmetic is elementwise or
    reduces its own rows and outputs only, so an item scores bit for bit
    the same whatever else shares its batch.
    """
    B, F, N = xs.shape
    Ys = y32.take(srows.transpose(0, 2, 1), axis=0)  # (B, N, F, k), sorted order
    cum = _prefix_sums(Ys)
    head = cum[:, :-1]
    left_cnt = np.arange(1, N, dtype=np.float32)[:, None]  # (N-1, 1)
    # Padded positions get a count of 1; they are masked below.
    right_cnt = np.maximum(n_rows.astype(np.float32)[:, None, None] - left_cnt, 1)
    left_sq = np.einsum("bifk,bifk->bif", head, head)
    # The right-hand sums overwrite the left ones, which are spent.
    right_sum = np.subtract(cum[:, -1:], head, out=head)
    right_sq = np.einsum("bifk,bifk->bif", right_sum, right_sum)
    # Constant total_q term omitted: minimizing -left_sq/nl - right_sq/nr
    # is equivalent to minimizing the post-split SSE.
    score = -(left_sq / left_cnt + right_sq / right_cnt)  # (B, N-1, F)

    # Mask inadmissible positions: ties, min_samples_leaf and padding.
    score[(xs[:, :, :-1] == xs[:, :, 1:]).transpose(0, 2, 1)] = np.inf
    if min_leaf > 1 or n_rows.min() < N:
        pos = np.arange(N - 1)
        score[(pos < min_leaf - 1) | (pos >= n_rows[:, None] - min_leaf)] = np.inf
    flat = score.reshape(B, -1)
    best = flat.argmin(axis=1)
    at, col = np.divmod(best, F)
    return flat[np.arange(B), best], at, col


def _padded(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feature-major ``X`` and float32 ``Y``, each with one padding row.

    Row index ``n`` is the padding of a node shorter than its batch: its
    feature values are +inf, so a stable sort leaves it at the end, and
    its targets are zero, so it adds nothing to a prefix sum.
    """
    n, d = X.shape
    XT = np.empty((d, n + 1))
    XT[:, :n] = X.T
    XT[:, n] = np.inf
    y32 = np.zeros((n + 1, Y.shape[1]), dtype=np.float32)
    y32[:n] = Y
    return XT, y32


def _sorted_rows(XT: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows`` stably sorted by each feature: a ``(d, rows)`` matrix."""
    return rows[np.argsort(XT[:, rows], axis=1, kind="stable")]


def _partition_sorted(srows: np.ndarray, left_of_row: np.ndarray):
    """Split a node's per-feature sorted rows into its children's.

    ``left_of_row[r]`` says whether row ``r`` goes left.  The partition
    is stable, so each child's rows stay sorted by every feature, ties
    in the parent's order: the order a fresh stable sort of the child's
    rows (a subsequence of the parent's) gives.
    """
    go = left_of_row.take(srows).ravel()
    flat = srows.ravel()
    d = srows.shape[0]
    return np.compress(go, flat).reshape(d, -1), np.compress(~go, flat).reshape(d, -1)


def _stack_padded(parts: list[np.ndarray], n_rows: np.ndarray, pad: int) -> np.ndarray:
    """Stack row arrays of lengths ``n_rows`` along their last axis,
    each filled up to the longest with the ``pad`` row."""
    N = int(n_rows.max())
    out = np.full((len(parts),) + parts[0].shape[:-1] + (N,), pad)
    fill = np.arange(N) < n_rows.reshape((-1,) + (1,) * (out.ndim - 1))
    out[np.broadcast_to(fill, out.shape)] = np.concatenate([p.ravel() for p in parts])
    return out


def _chunk_batch(XT: np.ndarray, part: list, F: int):
    """Scorer inputs of node chunks ``part``, each ``(node, first column)``.

    Returns the chunks' sorted column values ``(B, F, N)``, their rows in
    that order, their row counts and their candidate columns ``(B, F)``.
    Nodes without sorted rows have their chunk columns sorted here, as
    one stable argsort of the whole padded batch.
    """
    pad = XT.shape[1] - 1
    n_rows = np.array([node[0].size for node, _c0 in part])
    if len(part) == 1:
        (rows, srows, cols), c0 = part[0]
        cols, rows = cols[None, c0 : c0 + F], rows[None]
        if srows is not None:
            srows = srows[None, c0 : c0 + F]
    else:
        cols = np.stack([node[2][c0 : c0 + F] for node, c0 in part])
        srows = part[0][0][1]
        if srows is not None:
            srows = _stack_padded([n[1][c0 : c0 + F] for n, c0 in part], n_rows, pad)
        else:
            rows = _stack_padded([n[0] for n, _c0 in part], n_rows, pad)
    base = cols[:, :, None] * XT.shape[1]  # flat offset of each column's row
    if srows is not None:
        return XT.take(srows + base), srows, n_rows, cols
    vals = XT.take(rows[:, None, :] + base)
    order = np.argsort(vals, axis=2, kind="stable")
    B, N = rows.shape
    xs = vals.take(order + np.arange(B * F).reshape(B, F, 1) * N)
    return xs, rows.take(order + np.arange(B)[:, None, None] * N), n_rows, cols


def _best_splits(XT, y32, nodes, min_leaf: int) -> list[tuple[int, float] | None]:
    """``(feature, threshold)`` of each node's best split, or None.

    Each node is ``(rows, srows, cols)``: its rows, its rows sorted by
    every feature (:func:`_sorted_rows`) or None, and its candidate
    columns in draw order.  A node's candidates are cut into chunks of
    :func:`_feature_chunk` columns, and a chunk wins only with a strictly
    lower score than every earlier chunk of its node.  Chunks with the
    same column count, rows in the same power-of-two size class and the
    same kind (sorted rows or not) are scored in one :func:`_score_items`
    call, padded to the longest, up to :data:`_BATCH_BUDGET_FLOATS` of
    targets per call.
    """
    k = y32.shape[1]
    items = []  # (node, first column, column count)
    groups: dict[tuple[int, int], list[int]] = {}
    for j, (rows, srows, cols) in enumerate(nodes):
        step = _feature_chunk(rows.size, k)
        for c0 in range(0, cols.size, step):
            F = min(step, cols.size - c0)
            key = (F, rows.size.bit_length(), srows is None)
            groups.setdefault(key, []).append(len(items))
            items.append((j, c0, F))
    found: list = [None] * len(items)  # (score, feature, threshold) per item
    for (F, size_class, _sort), members in groups.items():
        per_call = max(1, _BATCH_BUDGET_FLOATS // ((1 << size_class) * F * k))
        for s0 in range(0, len(members), per_call):
            sub = members[s0 : s0 + per_call]
            part = [(nodes[items[i][0]], items[i][1]) for i in sub]
            xs, srows, n_rows, cols = _chunk_batch(XT, part, F)
            s, at, col = _score_items(xs, srows, n_rows, y32, min_leaf)
            ar = np.arange(len(sub))
            lo, hi = xs[ar, col, at], xs[ar, col, at + 1]
            mid = 0.5 * (lo + hi)
            # Guard against midpoint rounding onto the right value.
            thr = np.where(mid >= hi, lo, mid)
            for i, hit in zip(sub, zip(s.tolist(), cols[ar, col].tolist(), thr.tolist())):
                found[i] = hit
    best: list = [None] * len(nodes)
    for (j, _c0, _F), (s, f, t) in zip(items, found):
        if math.isfinite(s) and (best[j] is None or s < best[j][0]):
            best[j] = (s, f, t)
    return [None if b is None else b[1:] for b in best]


class _Nodes:
    """Flat node arrays of one growing tree, node ids in creation order."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] = []

    def add(self) -> int:
        """Append a leaf with zero value; returns its id."""
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(np.zeros(self.k))
        return len(self.feature) - 1

    def split(self, nid: int, feat: int, thr: float) -> tuple[int, int]:
        """Split leaf *nid*; returns its new children's ids, left first."""
        lid, rid = self.add(), self.add()
        self.feature[nid] = feat
        self.threshold[nid] = thr
        self.left[nid] = lid
        self.right[nid] = rid
        return lid, rid


def grow_exact(
    X: np.ndarray,
    Y: np.ndarray,
    roots: list[np.ndarray],
    gens: list,
    *,
    n_cand: int,
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
) -> list[_Nodes]:
    """Grow one exact-kernel tree per root row set, in DFS lockstep.

    Each tree grows depth-first from its stack, right child first, with
    node ids in creation order.  A step takes the next node to split
    from every tree, in that tree's own pop order, so the candidate
    columns each tree's generator in ``gens`` draws (when ``n_cand`` is
    below the column count) come out as when the tree grows alone, and
    scores all these nodes in one :func:`_best_splits` call.  A tree that
    scores every column sorts its root rows once per column and passes
    each child its parent's sorted rows, stably partitioned
    (:func:`_partition_sorted`), instead of sorting every node.  Records
    the ``tree.*`` metrics of the whole growth when obs is on.
    """
    timing = obs.enabled()
    t_fit = time.perf_counter() if timing else 0.0
    split_s = 0.0
    d = X.shape[1]
    XT, y32 = _padded(X, Y)
    arena = n_cand == d
    left_of_row = np.zeros(XT.shape[1], dtype=bool)
    all_cols = np.arange(d)
    trees = [_Nodes(Y.shape[1]) for _ in roots]
    stacks = [
        [(t.add(), rows, _sorted_rows(XT, rows) if arena else None, 0)]
        for t, rows in zip(trees, roots)
    ]
    live = list(range(len(trees)))
    while live:
        batch = []  # (tree, node id, rows, sorted rows, depth, targets)
        nodes = []  # the _best_splits input of each batch entry
        for t in live:
            stack = stacks[t]
            while stack:
                nid, rows, srows, depth = stack.pop()
                # One float64 gather per node; leaf means are taken only
                # when the node actually becomes a leaf.
                Yn = Y[rows]
                if (
                    rows.size < min_samples_split
                    or rows.size < 2 * min_samples_leaf
                    or (max_depth is not None and depth >= max_depth)
                    # Pure node: zero spread in every output (the predicate
                    # of allclose(rtol=0, atol=1e-15), minus its temporaries).
                    or np.abs(Yn - Yn[0]).max() <= 1e-15
                ):
                    trees[t].value[nid] = Yn.mean(axis=0)
                    continue
                cols = (
                    all_cols if arena
                    else gens[t].choice(d, size=n_cand, replace=False)
                )
                batch.append((t, nid, rows, srows, depth, Yn))
                nodes.append((rows, srows, cols))
                break
        t_split = time.perf_counter() if timing else 0.0
        splits = _best_splits(XT, y32, nodes, min_samples_leaf)
        if timing:
            split_s += time.perf_counter() - t_split
        for (t, nid, rows, srows, depth, Yn), split in zip(batch, splits):
            tree = trees[t]
            if split is not None:
                feat, thr = split
                go = XT[feat, rows] <= thr
                left, right = rows[go], rows[~go]
                if left.size >= min_samples_leaf and right.size >= min_samples_leaf:
                    lid, rid = tree.split(nid, feat, thr)
                    kids = (None, None)
                    if arena:
                        left_of_row[rows] = go
                        kids = _partition_sorted(srows, left_of_row)
                    stacks[t].append((lid, left, kids[0], depth + 1))
                    stacks[t].append((rid, right, kids[1], depth + 1))
                    continue
            tree.value[nid] = Yn.mean(axis=0)
        live = [t for t in live if stacks[t]]
    if timing:
        obs.counter("tree.fits", len(trees))
        obs.counter("tree.nodes", sum(len(t.feature) for t in trees))
        obs.observe("tree.split_search_s", split_s)
        obs.observe("tree.fit_s", time.perf_counter() - t_fit)
    return trees


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
        ``"exact"`` (default) grows with the sorted-scan kernel
        (:func:`grow_exact`); ``"hist"`` grows level-wise on pre-binned
        uint8 codes
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

    def fit_binned(self, binned, y, sample_indices=None) -> "RegressionTree":
        """Fit from a :class:`~repro.ml.binning.BinnedMatrix` alone.

        The one entry of the ``tree_method="hist"`` path: pool workers
        receive the shared uint8 codes plus bin bounds and never touch
        the float64 feature matrix, and :meth:`fit` bins ``X`` and
        calls this.  The tree grows level-wise (:mod:`repro.ml.hist`).
        """
        if self.tree_method != "hist":
            raise ValidationError("fit_binned requires tree_method='hist'")
        from .hist import TreeSpec, grow_trees

        yv = validate_binned_targets(binned, y)
        gen = check_random_state(self.rng)
        n, d = binned.n_rows, binned.n_features
        timing = obs.enabled()
        t_fit = time.perf_counter() if timing else 0.0
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
        self._adopt_grown(trees[0], d, yv.shape[1])
        if timing:
            stats.emit(1)
            obs.observe("tree.fit_s", time.perf_counter() - t_fit)
        return self

    def fit(self, X, y, sample_indices=None) -> "RegressionTree":
        """Grow the tree on (X, y).

        ``sample_indices`` optionally restricts training to a row subset
        (used by bagging to avoid copying the feature matrix).  With
        ``tree_method="hist"`` the tree bins *X* and fits through
        :meth:`fit_binned`.
        """
        Xv, yv = validate_fit_inputs(X, y)
        if self.tree_method == "hist":
            from .binning import BinMapper

            return self.fit_binned(
                BinMapper().fit_transform(Xv), yv, sample_indices
            )
        gen = check_random_state(self.rng)
        n, d = Xv.shape
        root = np.arange(n, dtype=np.intp)
        if sample_indices is not None:
            # Index semantics: a negative index names a row from the end
            # (the kernel's row n is padding), and one out of range raises.
            root = root[np.asarray(sample_indices, dtype=np.intp)]
        (grown,) = grow_exact(
            Xv,
            yv,
            [root],
            [gen],
            n_cand=self._n_candidate_features(d),
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
        )
        self._adopt_grown(grown, d, yv.shape[1])
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

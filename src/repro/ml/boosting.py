"""Gradient-boosted regression trees (the paper's "XGBoost" model).

An XGBoost-style second-order boosted ensemble specialized to squared
error, where the gradient statistics are exact and the Hessian is constant:
each round fits a shallow multi-output CART tree to the residual vectors
and replaces every leaf mean with the **regularized Newton step**
``sum(residuals) / (count + reg_lambda)`` — the same leaf-weight formula
XGBoost uses for ``reg:squarederror``.  Shrinkage (``learning_rate``), row
subsampling, and per-tree column subsampling match the XGBoost knobs the
paper's setup exposes.

Each round's tree is fitted to residuals that depend on every preceding
round, so rounds are inherently sequential; concurrency for boosted
cells comes from the fold level (see
:func:`repro.core.engine.logo_fold_vectors`).

``tree_method="hist"`` has one round loop, :func:`_boost_blocks`, which
boosts ``P`` equal row blocks of a stacked binned matrix and grows each
round's ``P`` trees as one :func:`~repro.ml.hist.grow_trees` batch.  A
solo :meth:`~GradientBoostingRegressor.fit` or
:meth:`~GradientBoostingRegressor.fit_binned` is one block; when
:func:`can_lockstep` holds (hist, a seed rather than a stateful
generator, equal-size folds) the engine cuts a cell's folds into one
contiguous group per worker and :func:`fit_predict_folds` boosts each
group's folds as one block each.  The batch amortizes the kernel's
per-call overhead across the group's folds; the groups run side by side
on the pool.  Hist boosting never reads ``X`` once it is binned: rows
outside a round's ``subsample`` draw follow their bin codes.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .._validation import check_positive_int, check_probability, check_random_state
from ..errors import ValidationError
from .base import Regressor, validate_binned_targets, validate_fit_inputs
from .tree import RegressionTree, check_tree_method, leaf_index

__all__ = ["GradientBoostingRegressor", "can_lockstep", "fit_predict_folds"]


class GradientBoostingRegressor(Regressor):
    """Boosted multi-output regression trees with XGBoost-style leaves.

    Parameters
    ----------
    n_estimators:
        Boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Depth of each weak learner (XGBoost default 6; shallow trees work
        best on the paper's small tabular datasets).
    reg_lambda:
        L2 regularization on leaf weights (XGBoost ``lambda``).
    subsample:
        Row-sampling fraction per round (without replacement).
    colsample_bytree:
        Column-sampling fraction per tree.
    min_samples_leaf:
        Minimum rows per leaf in the weak learners.
    rng:
        Seed or Generator.
    tree_method:
        ``"exact"`` (default) fits each round's tree with the sorted
        scan, which sorts the round's rows once per column and
        partitions that order down the tree; ``"hist"`` bins the matrix
        once and grows every
        round on the shared uint8 codes with a one-time per-feature
        sort order reused across all rounds (:mod:`repro.ml.hist`).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        *,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        colsample_bytree: float = 1.0,
        min_samples_leaf: int = 1,
        rng=None,
        tree_method: str = "exact",
    ) -> None:
        self.n_estimators = check_positive_int(n_estimators, name="n_estimators")
        if learning_rate <= 0.0:
            raise ValidationError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self.max_depth = check_positive_int(max_depth, name="max_depth")
        if reg_lambda < 0.0:
            raise ValidationError("reg_lambda must be non-negative")
        self.reg_lambda = float(reg_lambda)
        self.subsample = check_probability(subsample, name="subsample", inclusive=True)
        if self.subsample <= 0.0:
            raise ValidationError("subsample must be in (0, 1]")
        self.colsample_bytree = check_probability(
            colsample_bytree, name="colsample_bytree", inclusive=True
        )
        if self.colsample_bytree <= 0.0:
            raise ValidationError("colsample_bytree must be in (0, 1]")
        self.min_samples_leaf = check_positive_int(
            min_samples_leaf, name="min_samples_leaf"
        )
        self.rng = rng
        self.tree_method = check_tree_method(tree_method)

    def _regularize_leaves(
        self, tree: RegressionTree, leaf_of_row: np.ndarray, resid: np.ndarray
    ) -> None:
        """Replace leaf means with regularized Newton steps.

        For squared error, grad_i = -resid_i and hess_i = 1, so the optimal
        regularized leaf weight is sum(resid)/(count + lambda).
        ``leaf_of_row`` and ``resid`` cover the round's drawn rows.
        """
        sums = np.zeros((tree.node_count, resid.shape[1]))
        counts = np.zeros(tree.node_count)
        np.add.at(sums, leaf_of_row, resid)
        np.add.at(counts, leaf_of_row, 1.0)
        leaves = np.nonzero(counts > 0)[0]
        tree._value[leaves] = sums[leaves] / (counts[leaves] + self.reg_lambda)[:, None]

    def fit_binned(self, binned, y) -> "GradientBoostingRegressor":
        """Fit from a :class:`~repro.ml.binning.BinnedMatrix` alone.

        The one entry of the ``tree_method="hist"`` path (:meth:`fit`
        bins ``X`` and calls this): the shared round loop on one block
        of rows, which never reads ``X`` once it is binned.
        """
        if self.tree_method != "hist":
            raise ValidationError("fit_binned requires tree_method='hist'")
        yv = validate_binned_targets(binned, y)
        base, rounds = _boost_blocks(self, binned, yv, [(binned.lo, binned.hi)])
        k = yv.shape[1]
        self.base_prediction_ = base[0]
        self.trees_: list[RegressionTree] = []
        self.tree_columns_: list[np.ndarray] = []
        for cols, (grown,) in rounds:
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                tree_method="hist",
            )
            tree._adopt_grown(grown, cols.size, k)
            self.trees_.append(tree)
            self.tree_columns_.append(cols)
        self.n_features_ = binned.n_features
        self.n_outputs_ = k
        return self

    def fit(self, X, y) -> "GradientBoostingRegressor":
        """Fit the boosted ensemble; with ``tree_method="hist"`` it bins
        *X* and fits through :meth:`fit_binned`."""
        Xv, yv = validate_fit_inputs(X, y)
        if self.tree_method == "hist":
            from .binning import BinMapper

            return self.fit_binned(BinMapper().fit_transform(Xv), yv)
        gen = check_random_state(self.rng)
        n, d = Xv.shape
        k = yv.shape[1]
        self.base_prediction_ = yv.mean(axis=0)
        self.trees_: list[RegressionTree] = []
        self.tree_columns_: list[np.ndarray] = []
        current = np.tile(self.base_prediction_, (n, 1))
        n_rows = max(1, int(round(self.subsample * n)))
        n_cols = max(1, int(round(self.colsample_bytree * d)))
        for _ in range(self.n_estimators):
            resid = yv - current
            rows = (
                gen.choice(n, size=n_rows, replace=False)
                if n_rows < n
                else np.arange(n)
            )
            cols = (
                np.sort(gen.choice(d, size=n_cols, replace=False))
                if n_cols < d
                else np.arange(d)
            )
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                rng=gen,
            )
            tree.fit(Xv[np.ix_(rows, cols)], resid[rows])
            # One walk of every row serves the leaf regularization (the
            # drawn rows) and the running-prediction update (all rows).
            leaf = tree._leaf_index(Xv[:, cols])
            self._regularize_leaves(tree, leaf[rows], resid[rows])
            current += self.learning_rate * tree._value[leaf]
            self.trees_.append(tree)
            self.tree_columns_.append(cols)
        self.n_features_ = d
        self.n_outputs_ = k
        return self

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.tile(self.base_prediction_, (X.shape[0], 1))
        for tree, cols in zip(self.trees_, self.tree_columns_):
            out += self.learning_rate * tree._predict(X[:, cols])
        return out


#: Block-offset stride for the stacked sort keys (uint8 codes => 256).
_BLOCK_KEY_STRIDE = 256


def _boost_blocks(model, binned, Y, bounds):
    """The hist boosting round loop, on ``P = len(bounds)`` row blocks.

    ``binned``/``Y`` stack ``P`` equal blocks of rows, each boosted as
    its own ensemble (a solo fit is one block, the LOGO folds of a
    lockstep cell one block each); each round grows the blocks' ``P``
    trees as one :func:`~repro.ml.hist.grow_trees` batch.  ``bounds``
    holds each block's ``(lo, hi)`` bin bounds, the scaling its
    thresholds are re-expressed in.  Returns the blocks' base
    predictions ``(P, k)`` and, per round, its columns and ``P`` grown
    trees.

    Every block uses the round's one draw of row positions and columns:
    with equal blocks that is what a fresh clone fitted on each block
    alone draws.  The kernel's fused leaf pass regularizes the leaves,
    advances the running prediction and rewrites both residual views
    for the drawn rows.  Rows outside the draw route their bin codes
    through the round's tree: each code stands for its bin's lower
    bound in the block's scaling, which is the row's raw value on a
    losslessly binned column (at most 255 distinct values), so the walk
    equals ``tree._predict(X)`` there.  On a lossy column a row whose
    bin straddles a threshold follows the bin's lower bound.
    """
    from .hist import BoostFusion, GrowStats, TreeSpec, grow_trees, rebind_thresholds

    P = len(bounds)
    n, d = binned.codes.shape
    m = n // P
    off = np.arange(P + 1) * m
    # One stable per-feature sort of the rows keyed (block, code): each
    # block's slice of every feature column comes out code-sorted, the
    # root entry layout grow_trees propagates from.  The matching sorted
    # codes are gathered once, so a round's root entries are slices.
    key = (
        np.repeat(np.arange(P, dtype=np.int32), m)[:, None] * _BLOCK_KEY_STRIDE
        + binned.codes.astype(np.int32)
    )
    order = np.ascontiguousarray(np.argsort(key, axis=0, kind="stable").T)
    order_codes = binned.sorted_codes(order)

    gen = check_random_state(model.rng)
    n_rows = max(1, int(round(model.subsample * m)))
    n_cols = max(1, int(round(model.colsample_bytree * d)))
    base = np.stack([Y[off[p]:off[p + 1]].mean(axis=0) for p in range(P)])
    current = np.repeat(base, m, axis=0)
    resid64 = Y - current
    resid32 = resid64.astype(np.float32)
    fusion = BoostFusion(
        targets=Y,
        current=current,
        learning_rate=model.learning_rate,
        reg_lambda=model.reg_lambda,
    )
    block = np.arange(m)
    timing = obs.enabled()
    stats = GrowStats()
    rounds = []
    for _ in range(model.n_estimators):
        drawn = gen.choice(m, size=n_rows, replace=False) if n_rows < m else block
        cols = (
            np.sort(gen.choice(d, size=n_cols, replace=False))
            if n_cols < d
            else np.arange(d)
        )
        sub = binned.take_features(cols)
        # Root entries block-major, then feature-major, code-sorted.
        root_g = order[cols].reshape(-1, P, m).transpose(1, 0, 2).ravel()
        root_c = order_codes[cols].reshape(-1, P, m).transpose(1, 0, 2).ravel()
        if n_rows < m:
            in_draw = np.zeros(n, dtype=bool)
            in_draw[(off[:-1, None] + drawn).ravel()] = True
            keep = in_draw[root_g]
            root_g, root_c = root_g[keep], root_c[keep]
        grown, round_stats = grow_trees(
            sub,
            resid32,
            resid64,
            [TreeSpec(rows=off[p] + drawn) for p in range(P)],
            n_cand=cols.size,
            max_depth=model.max_depth,
            min_samples_split=2,
            min_samples_leaf=model.min_samples_leaf,
            root_entries=(root_g, root_c),
            boost=fusion,
            timing=timing,
        )
        stats.add(round_stats)
        if n_rows < m:
            undrawn = np.setdiff1d(block, drawn)
            for p, g in enumerate(grown):
                lo, hi = bounds[p]
                rows = off[p] + undrawn
                thr = rebind_thresholds(g, cols, lo, hi)
                leaf = leaf_index(g.feature, thr, g.left, g.right,
                                  lo[cols, sub.codes[rows]])
                current[rows] += model.learning_rate * g.value[leaf]
            rest = ~in_draw
            resid64[rest] = Y[rest] - current[rest]
            resid32[rest] = resid64[rest]
        rounds.append((cols, grown))
    if timing:
        stats.emit(P * model.n_estimators)
    return base, rounds


def can_lockstep(model, masks) -> bool:
    """Whether :func:`fit_predict_folds` applies to these LOGO folds.

    The lockstep batch requires hist boosting, equal fold sizes (one
    rectangular stacked matrix) and a seed rather than a stateful
    ``np.random.Generator``: lockstep draws one stream for all folds,
    where fitting fold by fold advances a shared generator per fold.
    """
    if not isinstance(model, GradientBoostingRegressor):
        return False
    if model.tree_method != "hist" or isinstance(model.rng, np.random.Generator):
        return False
    sizes = {int(np.asarray(m).sum()) for m in masks}
    return len(sizes) == 1 and sizes.pop() > 0


def fit_predict_folds(model, binned, Y, folds) -> list[np.ndarray]:
    """All LOGO folds of one hist-mode boosting cell, grown in lockstep.

    ``folds`` is a list of ``(mask, center, scale, x_probe_scaled)``
    tuples — the training-row mask of each fold over the rows of
    ``binned``/``Y``, its fitted robust-scaler parameters, and the
    already-scaled held-out probe row.  Returns the predicted target
    vector of each fold's probe, in ``folds`` order.

    The folds are the blocks of the shared round loop: every round
    grows all folds' trees as one batch on the stacked codes.  Per-fold
    results equal fitting each fold solo on its scaled binned matrix
    because (a) every fold clone draws the same row positions and
    columns, (b) specs are grown independently inside a batch, (c) leaf
    updates consume only the fold's own rows, and (d) split choice
    reads codes only.  Thresholds are recorded as bin-code pairs and
    re-expressed in each fold's scaled feature space
    (:func:`~repro.ml.hist.rebind_thresholds`) for the probe walk.
    """
    from .binning import BinnedMatrix
    from .hist import rebind_thresholds

    if not can_lockstep(model, [f[0] for f in folds]):
        raise ValidationError(
            "fit_predict_folds needs a hist-mode GradientBoostingRegressor "
            "with a seed (not a Generator) and equal-size folds"
        )
    stacked = BinnedMatrix(
        codes=np.concatenate([binned.codes[f[0]] for f in folds], axis=0),
        n_bins=binned.n_bins,
        lo=binned.lo,
        hi=binned.hi,
    )
    Y_st = np.concatenate([Y[f[0]] for f in folds], axis=0)
    scaled = [binned.scaled(center, scale) for _mask, center, scale, _xp in folds]
    base, rounds = _boost_blocks(
        model, stacked, Y_st, [(s.lo, s.hi) for s in scaled]
    )
    preds = []
    for p, (_mask, _center, _scale, xp) in enumerate(folds):
        probe = np.asarray(xp, dtype=np.float64).reshape(-1)
        out = base[p].copy()
        for cols, grown in rounds:
            g = grown[p]
            thr = rebind_thresholds(g, cols, scaled[p].lo, scaled[p].hi)
            nid = 0
            while g.feature[nid] >= 0:
                f = cols[g.feature[nid]]
                nid = g.left[nid] if probe[f] <= thr[nid] else g.right[nid]
            out += model.learning_rate * g.value[nid]
        preds.append(out)
    return preds

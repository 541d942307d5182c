"""Gradient-boosted regression trees (the paper's "XGBoost" model).

An XGBoost-style second-order boosted ensemble specialized to squared
error, where the gradient statistics are exact and the Hessian is constant:
each round fits a shallow multi-output CART tree to the residual vectors
and replaces every leaf mean with the **regularized Newton step**
``sum(residuals) / (count + reg_lambda)`` — the same leaf-weight formula
XGBoost uses for ``reg:squarederror``.  Shrinkage (``learning_rate``), row
subsampling, and per-tree column subsampling match the XGBoost knobs the
paper's setup exposes.

Unlike :class:`~repro.ml.forest.RandomForestRegressor`, boosting offers
no tree-level ``n_jobs`` path: each round's tree is fitted to residuals
that depend on every preceding round, so rounds are inherently
sequential.  Concurrency for boosted cells comes from the fold level
instead (see :func:`repro.core.engine.logo_fold_vectors`): exact-mode
folds go to the worker pool one per task.  When :func:`can_lockstep`
holds (``tree_method="hist"``, no row subsampling, equal-size folds),
the engine cuts a cell's folds into one contiguous group per worker, and
each group grows its folds' round-``r`` trees as one level-wise batch on
the shared binned codes (:func:`fit_predict_folds`).  The batch
amortizes the kernel's per-call overhead across the group's folds; the
groups run side by side on the pool.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .._validation import check_positive_int, check_probability, check_random_state
from ..errors import ValidationError
from .base import Regressor, validate_fit_inputs
from .tree import RegressionTree, check_tree_method

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
        ``"exact"`` (default) fits each round's tree with the per-node
        sorted scan; ``"hist"`` bins the matrix once and grows every
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

    def _regularize_leaves(self, tree: RegressionTree, X: np.ndarray, resid: np.ndarray, rows: np.ndarray) -> None:
        """Replace leaf means with regularized Newton steps.

        For squared error, grad_i = -resid_i and hess_i = 1, so the optimal
        regularized leaf weight is sum(resid)/(count + lambda).
        """
        leaf_of_row = np.zeros(rows.size, dtype=np.intp)
        node = np.zeros(rows.size, dtype=np.intp)
        active = tree._feature[node] >= 0
        Xr = X[rows]
        while np.any(active):
            sel = np.nonzero(active)[0]
            nid = node[sel]
            go_left = Xr[sel, tree._feature[nid]] <= tree._threshold[nid]
            node[sel] = np.where(go_left, tree._left[nid], tree._right[nid])
            active[sel] = tree._feature[node[sel]] >= 0
        leaf_of_row = node
        k = resid.shape[1]
        sums = np.zeros((tree.node_count, k))
        counts = np.zeros(tree.node_count)
        np.add.at(sums, leaf_of_row, resid[rows])
        np.add.at(counts, leaf_of_row, 1.0)
        leaves = np.nonzero(counts > 0)[0]
        tree._value[leaves] = sums[leaves] / (counts[leaves] + self.reg_lambda)[:, None]

    def _fit_hist(self, Xv, yv, gen, binned) -> "GradientBoostingRegressor":
        """Histogram fit: bin once, reuse one per-feature sort order for
        every round's tree.

        Round trees are grown directly on the shared codes; training-row
        routing by bin code is identical to threshold traversal for rows
        the binner has seen.  Without row subsampling the whole boosting
        update is fused into the kernel (:class:`~repro.ml.hist.
        BoostFusion`): the residual arrays are allocated once, the
        regularized Newton leaves, running-prediction update and
        next-round residuals are all produced inside leaf finalization,
        and no per-round ``tree._predict`` walk or full-vector residual
        re-derivation happens — bit-identical to the unfused update.
        """
        from .binning import BinMapper, BinnedMatrix
        from .hist import BoostFusion, TreeSpec, feature_code_order, grow_trees

        if Xv is None:
            n, d = binned.n_rows, binned.n_features
        else:
            n, d = Xv.shape
            if binned is None:
                binned = BinMapper().fit_transform(Xv)
            elif (binned.n_rows, binned.n_features) != (n, d):
                raise ValidationError(
                    f"binned matrix is {(binned.n_rows, binned.n_features)}, "
                    f"X is {(n, d)}"
                )
        k = yv.shape[1]
        grouped = feature_code_order(binned.codes)
        self.base_prediction_ = yv.mean(axis=0)
        self.trees_: list[RegressionTree] = []
        self.tree_columns_: list[np.ndarray] = []
        current = np.tile(self.base_prediction_, (n, 1))
        n_rows = max(1, int(round(self.subsample * n)))
        n_cols = max(1, int(round(self.colsample_bytree * d)))
        timing = obs.enabled()
        nodes = subs = rparts = 0
        build_s = scan_s = part_s = leaf_s = 0.0
        fused = n_rows >= n
        if fused:
            sorted_codes = binned.sorted_codes(grouped)
            resid64 = yv - current
            resid32 = resid64.astype(np.float32)
            fusion = BoostFusion(
                targets=yv,
                current=current,
                learning_rate=self.learning_rate,
                reg_lambda=self.reg_lambda,
            )
            rows_all = np.arange(n)
        for _ in range(self.n_estimators):
            if not fused:
                resid = yv - current
                rows = gen.choice(n, size=n_rows, replace=False)
            cols = (
                np.sort(gen.choice(d, size=n_cols, replace=False))
                if n_cols < d
                else np.arange(d)
            )
            sub = binned.take_features(cols) if n_cols < d else binned
            G = grouped[cols] if n_cols < d else grouped
            if fused:
                sc = sorted_codes[cols] if n_cols < d else sorted_codes
                grown, stats = grow_trees(
                    sub,
                    resid32,
                    resid64,
                    [TreeSpec(rows=rows_all)],
                    n_cand=cols.size,
                    max_depth=self.max_depth,
                    min_samples_split=2,
                    min_samples_leaf=self.min_samples_leaf,
                    root_entries=(G.ravel(), sc.ravel()),
                    boost=fusion,
                    timing=timing,
                )
            else:
                grown, stats = grow_trees(
                    sub,
                    resid.astype(np.float32),
                    resid,
                    [TreeSpec(rows=rows)],
                    n_cand=cols.size,
                    max_depth=self.max_depth,
                    min_samples_split=2,
                    min_samples_leaf=self.min_samples_leaf,
                    feature_order=G,
                    timing=timing,
                )
            g = grown[0]
            nodes += stats.nodes
            subs += stats.hist_subtractions
            rparts += stats.rows_partitioned
            build_s += stats.build_s
            scan_s += stats.scan_s
            part_s += stats.partition_s
            leaf_s += stats.leaf_s
            if not fused:
                # Regularized Newton leaves from the kernel's row
                # routing — same sums, counts and accumulation order as
                # the exact path's traversal-based _regularize_leaves.
                lids = g.leaf_of_row[rows]
                sums = np.zeros((g.feature.size, k))
                counts = np.zeros(g.feature.size)
                np.add.at(sums, lids, resid[rows])
                np.add.at(counts, lids, 1.0)
                leaves = np.nonzero(counts > 0)[0]
                g.value[leaves] = (
                    sums[leaves] / (counts[leaves] + self.reg_lambda)[:, None]
                )
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                tree_method="hist",
            )
            tree._adopt_grown(g, cols.size, k)
            if not fused:
                current += self.learning_rate * tree._predict(Xv[:, cols])
            self.trees_.append(tree)
            self.tree_columns_.append(cols)
        if timing:
            obs.counter("tree.fits", self.n_estimators)
            obs.counter("tree.nodes", nodes)
            obs.counter("tree.hist_nodes", nodes)
            obs.counter("tree.hist_subtractions", subs)
            obs.counter("tree.rows_partitioned", rparts)
            obs.observe("tree.hist_build_s", build_s)
            obs.observe("tree.scan_s", scan_s)
            obs.observe("tree.partition_s", part_s)
            obs.observe("tree.leaf_s", leaf_s)
        self.n_features_ = d
        self.n_outputs_ = k
        return self

    def fit_binned(self, binned, y) -> "GradientBoostingRegressor":
        """Fit from a :class:`~repro.ml.binning.BinnedMatrix` alone.

        X-free entry point of the ``tree_method="hist"`` path for pool
        workers.  Requires ``subsample=1.0``: with every row in every
        round, the running prediction updates through the kernel's
        ``leaf_of_row`` routing and the raw feature matrix is never
        consulted.  Bit-identical to ``fit(X, y, binned=binned)``.
        """
        if self.tree_method != "hist":
            raise ValidationError("fit_binned requires tree_method='hist'")
        if self.subsample != 1.0:  # repro: noqa[DET005]
            raise ValidationError(
                "fit_binned requires subsample=1.0 (row subsampling needs "
                "the raw feature matrix to update the running prediction)"
            )
        from .base import validate_binned_targets

        yv = validate_binned_targets(binned, y)
        gen = check_random_state(self.rng)
        return self._fit_hist(None, yv, gen, binned)

    def fit(self, X, y, binned=None) -> "GradientBoostingRegressor":
        """Fit the boosted ensemble; ``binned`` optionally supplies the
        pre-binned matrix of *X* for the ``tree_method="hist"`` path."""
        Xv, yv = validate_fit_inputs(X, y)
        gen = check_random_state(self.rng)
        if self.tree_method == "hist":
            return self._fit_hist(Xv, yv, gen, binned)
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
            # Leaf regularization must see the same column view.
            self._regularize_leaves(tree, Xv[:, cols], resid, rows)
            current += self.learning_rate * tree._predict(Xv[:, cols])
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


#: Fold-offset stride for the lockstep sort keys (uint8 codes => 256).
_FOLD_KEY_STRIDE = 256


def can_lockstep(model, masks) -> bool:
    """Whether :func:`fit_predict_folds` applies to these LOGO folds.

    The lockstep batch requires no row subsampling (all folds then draw
    identical per-round column sets from one shared stream) and equal
    fold sizes (one rectangular stacked matrix).
    """
    if not isinstance(model, GradientBoostingRegressor):
        return False
    if model.tree_method != "hist" or model.subsample != 1.0:  # repro: noqa[DET005]
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

    Every round grows *all* folds' trees as one :func:`grow_trees` batch
    on the stacked codes, with the per-feature sort order computed once
    for the whole fit; per-fold results are identical to fitting each
    fold solo on the shared binned matrix because (a) with
    ``subsample == 1`` every fold clone draws the same column sequence,
    (b) specs are grown independently inside a batch, and (c) leaf
    updates consume only the fold's own rows.  Thresholds are recorded
    as bin-code pairs and re-expressed in each fold's scaled feature
    space (:func:`~repro.ml.hist.rebind_thresholds`) before the probe
    walk, matching what a per-fold fit on scaled features would produce.
    """
    from .binning import BinnedMatrix
    from .hist import BoostFusion, TreeSpec, grow_trees, rebind_thresholds

    if not can_lockstep(model, [f[0] for f in folds]):
        raise ValidationError(
            "fit_predict_folds needs a hist-mode GradientBoostingRegressor "
            "with subsample=1.0 and equal-size folds"
        )
    P = len(folds)
    d = binned.n_features
    k = Y.shape[1]
    m = int(np.asarray(folds[0][0]).sum())
    codes_st = np.concatenate([binned.codes[f[0]] for f in folds], axis=0)
    Y_st = np.concatenate([Y[f[0]] for f in folds], axis=0)
    off = np.arange(P + 1) * m

    # One stable per-feature sort of the stacked rows keyed (fold, code):
    # each fold's block of every feature column comes out code-sorted,
    # which is exactly the root entry layout grow_trees propagates from.
    # The matching sorted codes are materialized once alongside, so a
    # round's root entries are two cheap column slices.
    comp = (
        np.repeat(np.arange(P, dtype=np.int32), m)[:, None] * _FOLD_KEY_STRIDE
        + codes_st.astype(np.int32)
    )
    grouped = np.ascontiguousarray(np.argsort(comp, axis=0, kind="stable").T)
    sorted_codes = codes_st[grouped, np.arange(d)[:, None]]

    gen = check_random_state(model.rng)
    n_cols = max(1, int(round(model.colsample_bytree * d)))
    base = np.stack([Y_st[off[p]:off[p + 1]].mean(axis=0) for p in range(P)])
    current = np.repeat(base, m, axis=0)
    specs = [TreeSpec(rows=np.arange(off[p], off[p + 1])) for p in range(P)]
    fold_trees: list[list] = [[] for _ in range(P)]
    timing = obs.enabled()
    nodes = subs = rparts = 0
    build_s = scan_s = part_s = leaf_s = 0.0

    # Residual views live across rounds; the kernel's fused leaf pass
    # regularizes leaves, advances `current` and rewrites both views in
    # place, so each round starts with its residuals already positioned.
    resid64 = Y_st - current
    resid32 = resid64.astype(np.float32)
    fusion = BoostFusion(
        targets=Y_st,
        current=current,
        learning_rate=model.learning_rate,
        reg_lambda=model.reg_lambda,
    )

    for _ in range(model.n_estimators):
        cols = (
            np.sort(gen.choice(d, size=n_cols, replace=False))
            if n_cols < d
            else np.arange(d)
        )
        sub = BinnedMatrix(
            codes=np.ascontiguousarray(codes_st[:, cols]),
            n_bins=binned.n_bins[cols],
            lo=binned.lo[cols],
            hi=binned.hi[cols],
        )
        G = grouped[cols]
        sc = sorted_codes[cols]
        root_g = np.concatenate(
            [G[:, off[p]:off[p + 1]].ravel() for p in range(P)]
        )
        root_c = np.concatenate(
            [sc[:, off[p]:off[p + 1]].ravel() for p in range(P)]
        )
        grown, stats = grow_trees(
            sub,
            resid32,
            resid64,
            specs,
            n_cand=cols.size,
            max_depth=model.max_depth,
            min_samples_split=2,
            min_samples_leaf=model.min_samples_leaf,
            root_entries=(root_g, root_c),
            boost=fusion,
            timing=timing,
        )
        nodes += stats.nodes
        subs += stats.hist_subtractions
        rparts += stats.rows_partitioned
        build_s += stats.build_s
        scan_s += stats.scan_s
        part_s += stats.partition_s
        leaf_s += stats.leaf_s
        for p, g in enumerate(grown):
            fold_trees[p].append((g, cols))
    if timing:
        obs.counter("tree.fits", P * model.n_estimators)
        obs.counter("tree.nodes", nodes)
        obs.counter("tree.hist_nodes", nodes)
        obs.counter("tree.hist_subtractions", subs)
        obs.counter("tree.rows_partitioned", rparts)
        obs.observe("tree.hist_build_s", build_s)
        obs.observe("tree.scan_s", scan_s)
        obs.observe("tree.partition_s", part_s)
        obs.observe("tree.leaf_s", leaf_s)

    preds = []
    for p, (_mask, center, scale, xp) in enumerate(folds):
        scaled = binned.scaled(center, scale)
        probe = np.asarray(xp, dtype=np.float64).reshape(-1)
        out = base[p].copy()
        for g, cols in fold_trees[p]:
            thr = rebind_thresholds(g, cols, scaled.lo, scaled.hi)
            nid = 0
            while g.feature[nid] >= 0:
                f = cols[g.feature[nid]]
                nid = g.left[nid] if probe[f] <= thr[nid] else g.right[nid]
            out += model.learning_rate * g.value[nid]
        preds.append(out)
    return preds

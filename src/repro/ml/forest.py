"""Random forest regression (Breiman 2001), one of the paper's three models.

Bagged multi-output CART trees with per-node feature subsampling.  The
forest averages whole distribution-representation vectors, exactly as the
paper's scikit-learn ``RandomForestRegressor`` does for multi-output
targets.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from .._validation import check_positive_int, check_random_state
from ..errors import ValidationError
from .base import Regressor, validate_binned_targets, validate_fit_inputs
from .tree import RegressionTree, check_tree_method, grow_exact, n_candidate_features

__all__ = ["RandomForestRegressor"]


def _member_streams(seeds, n: int, bootstrap: bool):
    """Each member's training rows and generator, from its spawned seed.

    The member's generator draws its bootstrap rows first and then its
    per-node candidate columns, so a tree depends on its own seed alone,
    not on the order or company it grows in.
    """
    for seq in seeds:
        rng = np.random.default_rng(seq)
        yield (rng.integers(0, n, size=n) if bootstrap else np.arange(n)), rng


class RandomForestRegressor(Regressor):
    """Bagging ensemble of :class:`~repro.ml.tree.RegressionTree`.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed through to each tree.
    max_features:
        Per-node feature subsampling; defaults to ``"sqrt"`` — with the
        paper's ~270-dimensional profile features this keeps trees
        decorrelated.
    bootstrap:
        Sample rows with replacement per tree (classic bagging).
    rng:
        Seed or Generator; child trees get independent spawned streams so
        results are reproducible regardless of fitting order.
    tree_method:
        ``"exact"`` (default) grows *all* trees together with the
        sorted-scan kernel, one node per tree per step in each tree's
        depth-first order (:func:`~repro.ml.tree.grow_exact`); ``"hist"``
        bins the matrix once and grows all trees as one level-wise
        batch on the shared uint8 codes (:mod:`repro.ml.hist`).  Either
        batch amortizes per-node NumPy overhead across the whole forest,
        and joint growth is bit-identical to growing each tree solo from
        its spawned stream.

    Trees are fitted in-process: the evaluation grids parallelize at
    the LOGO-fold level (:func:`repro.core.engine.logo_fold_vectors`).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        rng=None,
        tree_method: str = "exact",
    ) -> None:
        self.n_estimators = check_positive_int(n_estimators, name="n_estimators")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.rng = rng
        self.tree_method = check_tree_method(tree_method)

    def _members(self, tree_method: str) -> list[RegressionTree]:
        """One unfitted member tree per estimator; building them
        validates the tree parameters before any tree grows."""
        return [
            RegressionTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                tree_method=tree_method,
            )
            for _ in range(self.n_estimators)
        ]

    def _fit_hist(self, binned, yv, seeds) -> None:
        """Grow the whole forest as one batch on pre-binned codes."""
        from .hist import TreeSpec, grow_trees

        n, d = binned.n_rows, binned.n_features
        k = yv.shape[1]
        trees = self._members("hist")
        specs = [
            TreeSpec(rows=rows, rng=rng)
            for rows, rng in _member_streams(seeds, n, self.bootstrap)
        ]
        timing = obs.enabled()
        grown, stats = grow_trees(
            binned,
            yv.astype(np.float32),
            yv,
            specs,
            n_cand=n_candidate_features(self.max_features, d),
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            timing=timing,
        )
        for tree, g in zip(trees, grown):
            tree._adopt_grown(g, d, k)
        self.trees_ = trees
        if timing:
            stats.emit(len(grown))

    def _fit_exact(self, Xv, yv, seeds) -> None:
        """Grow every member in DFS lockstep (:func:`~repro.ml.tree.grow_exact`)."""
        n, d = Xv.shape
        trees = self._members("exact")
        rows, gens = zip(*_member_streams(seeds, n, self.bootstrap))
        grown = grow_exact(
            Xv,
            yv,
            list(rows),
            list(gens),
            n_cand=trees[0]._n_candidate_features(d),
            max_depth=trees[0].max_depth,
            min_samples_split=trees[0].min_samples_split,
            min_samples_leaf=trees[0].min_samples_leaf,
        )
        for tree, g in zip(trees, grown):
            tree._adopt_grown(g, d, yv.shape[1])
        self.trees_ = trees

    def _grow(self, grow, data, yv, d: int) -> "RandomForestRegressor":
        """Spawn one seed per tree, then ``grow(data, yv, seeds)``.

        One spawned seed per tree keeps trees independent and the whole
        fit reproducible from a single root seed, regardless of where
        (or in what order) each tree is fitted.
        """
        gen = check_random_state(self.rng)
        seeds = np.random.SeedSequence(gen.integers(0, 2**63 - 1)).spawn(
            self.n_estimators
        )
        timing = obs.enabled()
        t_fit = time.perf_counter() if timing else 0.0
        with obs.span("forest.fit", n_estimators=self.n_estimators):
            grow(data, yv, seeds)
        if timing:
            obs.counter("forest.fits")
            obs.observe("forest.fit_s", time.perf_counter() - t_fit)
        self.n_features_ = d
        self.n_outputs_ = yv.shape[1]
        return self

    def fit_binned(self, binned, y) -> "RandomForestRegressor":
        """Fit from a :class:`~repro.ml.binning.BinnedMatrix` alone.

        The one entry of the ``tree_method="hist"`` path: pool workers
        receive the shared uint8 codes plus bin bounds instead of the
        float64 feature matrix, and :meth:`fit` bins ``X`` and calls
        this.
        """
        if self.tree_method != "hist":
            raise ValidationError("fit_binned requires tree_method='hist'")
        yv = validate_binned_targets(binned, y)
        return self._grow(self._fit_hist, binned, yv, binned.n_features)

    def fit(self, X, y) -> "RandomForestRegressor":
        """Fit the forest; with ``tree_method="hist"`` it bins *X* and
        fits through :meth:`fit_binned`."""
        Xv, yv = validate_fit_inputs(X, y)
        if self.tree_method == "hist":
            from .binning import BinMapper

            return self.fit_binned(BinMapper().fit_transform(Xv), yv)
        return self._grow(self._fit_exact, Xv, yv, Xv.shape[1])

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((X.shape[0], self.n_outputs_))
        for tree in self.trees_:
            out += tree._predict(X)
        out /= len(self.trees_)
        return out

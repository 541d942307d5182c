"""Quantile feature binning for histogram-based tree training.

LightGBM-style pre-binning: each feature column is discretized once into
at most ``max_bins`` ordered bins (uint8 codes), after which every tree,
every boosting round and every LOGO fold of the same feature matrix can
run split search on the shared codes instead of re-sorting float64
columns per node.  A :class:`BinMapper` is fitted per ``(X, encoding)``
and cached by the evaluation engine next to its fold-vector memo; the
resulting :class:`BinnedMatrix` travels through the shared-memory plane
as uint8 — an 8x dispatch-byte cut over shipping the float64 features.

Two properties the split kernel relies on:

* **Order preservation** — codes are monotone in the raw value, so any
  monotone per-feature transform of ``X`` (e.g. the per-fold
  :class:`~repro.ml.scaling.RobustScaler`, whose scale is strictly
  positive) leaves the codes valid; only the numeric bin *bounds* need
  re-expressing in the transformed space (:meth:`BinnedMatrix.scaled`).
* **Losslessness on small cardinality** — a feature with at most
  ``max_bins`` distinct values gets one bin per value
  (``lo == hi == value``), so histogram split search sees exactly the
  information the exact sorted scan sees.

With :mod:`repro.obs` enabled, fitting emits the ``tree.bin_s``
histogram documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from .._validation import check_2d
from ..errors import NotFittedError, ValidationError

__all__ = ["BinMapper", "BinnedMatrix", "DEFAULT_MAX_BINS"]

#: Default bin budget; 255 keeps codes in uint8 with one spare value.
DEFAULT_MAX_BINS = 255


@dataclass(frozen=True)
class BinnedMatrix:
    """Pre-binned view of a feature matrix.

    Attributes
    ----------
    codes:
        ``(n, d)`` uint8 bin codes, C-contiguous.
    n_bins:
        ``(d,)`` number of occupied bins per feature.
    lo / hi:
        ``(d, max(n_bins))`` float64 smallest/largest raw value that
        fell into each bin, NaN-padded past ``n_bins[j]``.  Split
        thresholds are midpoints between ``hi`` of the left bin and
        ``lo`` of the right bin, so they live in the same space as these
        bounds.
    """

    codes: np.ndarray
    n_bins: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def n_rows(self) -> int:
        """Number of binned rows."""
        return int(self.codes.shape[0])

    @property
    def n_features(self) -> int:
        """Number of binned feature columns."""
        return int(self.codes.shape[1])

    def scaled(self, center: np.ndarray, scale: np.ndarray) -> "BinnedMatrix":
        """Bounds re-expressed through ``x -> (x - center) / scale``.

        ``scale`` must be positive (monotone increasing transform), so
        the codes themselves stay valid and only ``lo``/``hi`` move.
        The arithmetic matches a column-wise scaler transform of the raw
        values bit for bit, which keeps lossless-mode thresholds
        identical to the exact kernel's midpoints on scaled features.
        """
        c = np.asarray(center, dtype=np.float64).reshape(-1, 1)
        s = np.asarray(scale, dtype=np.float64).reshape(-1, 1)
        if c.shape[0] != self.n_features or s.shape[0] != self.n_features:
            raise ValidationError(
                f"scaler has {c.shape[0]} features, binned matrix has "
                f"{self.n_features}"
            )
        return BinnedMatrix(
            codes=self.codes,
            n_bins=self.n_bins,
            lo=(self.lo - c) / s,
            hi=(self.hi - c) / s,
        )

    def sorted_codes(self, order: np.ndarray) -> np.ndarray:
        """Codes gathered into a per-feature row order.

        ``order`` is a ``(d, n)`` row-index array (typically
        :func:`~repro.ml.hist.feature_code_order`); the result's row
        ``j`` holds feature ``j``'s codes in that order.  Materialized
        once per fit, it supplies the code half of the kernel's root
        entries for every boosting round without per-round gathers.
        """
        return self.codes[order, np.arange(self.n_features)[:, None]]

    def take_rows(self, indexer) -> "BinnedMatrix":
        """Row-subset view (mask or index array); bounds are shared."""
        return BinnedMatrix(
            codes=np.ascontiguousarray(self.codes[indexer]),
            n_bins=self.n_bins,
            lo=self.lo,
            hi=self.hi,
        )

    def take_features(self, cols: np.ndarray) -> "BinnedMatrix":
        """Column-subset copy (used by per-tree column subsampling)."""
        return BinnedMatrix(
            codes=np.ascontiguousarray(self.codes[:, cols]),
            n_bins=self.n_bins[cols],
            lo=self.lo[cols],
            hi=self.hi[cols],
        )


class BinMapper:
    """Per-feature quantile binner producing uint8 codes.

    Parameters
    ----------
    max_bins:
        Bin budget per feature, 2..256.  Features with at most
        ``max_bins`` distinct values are binned losslessly (one bin per
        value); denser features get equal-frequency (quantile) bins.
    """

    def __init__(self, max_bins: int = DEFAULT_MAX_BINS) -> None:
        if not 2 <= int(max_bins) <= 256:
            raise ValidationError(f"max_bins must be in [2, 256], got {max_bins}")
        self.max_bins = int(max_bins)

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return hasattr(self, "edges_")

    def fit(self, X) -> "BinMapper":
        """Learn per-feature bin edges and value bounds from *X*."""
        Xv = check_2d(X, name="X")
        n, d = Xv.shape
        edges: list[np.ndarray] = []
        n_bins = np.empty(d, dtype=np.intp)
        lo_cols: list[np.ndarray] = []
        hi_cols: list[np.ndarray] = []
        for j in range(d):
            col_sorted = np.sort(Xv[:, j])
            uniq = np.unique(col_sorted)
            if uniq.size <= self.max_bins:
                # Lossless: one bin per distinct value.
                edge = uniq
                lo = hi = uniq
            else:
                # Equal-frequency boundaries on the sorted column; edges
                # are the last value of each bin, deduplicated so heavy
                # ties collapse into one bin.
                pos = (np.arange(1, self.max_bins) * n) // self.max_bins
                edge = np.unique(col_sorted[pos - 1])
                if edge.size == 0 or edge[-1] < col_sorted[-1]:
                    edge = np.append(edge, col_sorted[-1])
                # Rows of each bin: values in (edge[b-1], edge[b]].
                ends = np.searchsorted(col_sorted, edge, side="right")
                starts = np.concatenate([[0], ends[:-1]])
                lo = col_sorted[starts]
                hi = col_sorted[ends - 1]
            edges.append(edge)
            n_bins[j] = edge.size
            lo_cols.append(lo)
            hi_cols.append(hi)
        B = int(n_bins.max()) if d else 0
        lo_pad = np.full((d, B), np.nan)
        hi_pad = np.full((d, B), np.nan)
        for j in range(d):
            lo_pad[j, : n_bins[j]] = lo_cols[j]
            hi_pad[j, : n_bins[j]] = hi_cols[j]
        self.edges_ = edges
        self.n_bins_ = n_bins
        self.lo_ = lo_pad
        self.hi_ = hi_pad
        self.n_features_ = d
        return self

    def transform(self, X) -> np.ndarray:
        """uint8 codes of *X* under the fitted edges.

        Values beyond a feature's last edge (unseen at fit time) clip
        into the top bin.
        """
        if not self.is_fitted:
            raise NotFittedError("BinMapper must be fitted before transform")
        Xv = check_2d(X, name="X")
        if Xv.shape[1] != self.n_features_:
            raise ValidationError(
                f"BinMapper was fitted with {self.n_features_} features, "
                f"got {Xv.shape[1]}"
            )
        codes = np.empty(Xv.shape, dtype=np.uint8)
        for j, edge in enumerate(self.edges_):
            cj = np.searchsorted(edge, Xv[:, j], side="left")
            codes[:, j] = np.minimum(cj, edge.size - 1)
        return codes

    def fit_transform(self, X) -> BinnedMatrix:
        """Fit on *X* and return its :class:`BinnedMatrix`.

        The one call the engine makes per ``(X, encoding)``; emits
        ``tree.bin_s`` when observability is enabled.
        """
        timing = obs.enabled()
        t0 = time.perf_counter() if timing else 0.0
        binned = BinnedMatrix(
            codes=self.fit(X).transform(X),
            n_bins=self.n_bins_,
            lo=self.lo_,
            hi=self.hi_,
        )
        if timing:
            obs.observe("tree.bin_s", time.perf_counter() - t0)
        return binned

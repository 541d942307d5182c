"""Boosting predictions pinned bit for bit.

Each digest is the SHA-256 (first 16 hex digits) of a prediction
matrix's float64 bytes.  The digests were recorded with the two-loop
hist implementation (a separate solo round loop with a fused and an
unfused branch, and the fold-lockstep loop), on which a hist fold with
``subsample < 1`` could only be fitted from ``X``; the one shared loop
reproduces every one of them but three, marked below.  Those three
combine lossy bins with ``subsample < 1``: a row outside a round's draw
now follows its bin's lower bound through the tree, where the two-loop
code compared its raw value, and the two differ for a row whose bin
straddles a split threshold.

Solo cases fit ``X`` directly and predict ``X`` plus a few unseen rows.
Fold cases predict each LOGO fold's scaled probe row the way the
evaluation engine fits a fold: ``fit_binned`` on the shared binned
matrix re-expressed in the fold's robust scaling.  The
``lossless`` fixtures keep every column at or under 255 distinct values
(one bin per value, like every grid design); the ``lossy`` fixtures
give every column more distinct values than bins.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.ml.binning import BinMapper
from repro.ml.boosting import GradientBoostingRegressor, fit_predict_folds
from repro.ml.scaling import RobustScaler

SUBSAMPLES = (1.0, 0.5)
COLSAMPLES = (1.0, 0.5)
GRID = list(itertools.product(SUBSAMPLES, COLSAMPLES))


def digest(array: np.ndarray) -> str:
    """First 16 hex digits of the SHA-256 of *array*'s float64 bytes."""
    data = np.ascontiguousarray(array, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def model(subsample: float, colsample: float, tree_method: str = "hist"):
    return GradientBoostingRegressor(
        8,
        learning_rate=0.3,
        max_depth=3,
        subsample=subsample,
        colsample_bytree=colsample,
        rng=5,
        tree_method=tree_method,
    )


def solo_fixture(name: str):
    """(X, Y, query rows) of a solo fixture."""
    n, d, k = {"lossless": (48, 10, 3), "lossy": (300, 5, 2)}[name]
    r = np.random.default_rng(20261018)
    X = r.normal(size=(n, d))
    Y = r.normal(size=(n, k)) + X[:, :1]
    return X, Y, np.vstack([X, r.normal(size=(7, d))])


def fold_fixture(name: str):
    """(Y, binned, folds) of a LOGO fold fixture; each fold is
    ``(mask, center, scale, scaled probe row)``."""
    groups_n, rows_per, d, k = {
        "lossless": (4, 16, 12, 3),
        "lossy": (4, 80, 5, 2),
    }[name]
    r = np.random.default_rng(20261019)
    n = groups_n * rows_per
    X = r.normal(size=(n, d))
    Y = r.normal(size=(n, k)) + X[:, :1]
    groups = np.repeat(np.arange(groups_n), rows_per)
    binned = BinMapper().fit_transform(X)
    folds = []
    for g in range(groups_n):
        mask = groups != g
        scaler = RobustScaler().fit(X[mask])
        xp = scaler.transform(r.normal(size=(1, d)))[0]
        folds.append((mask, scaler.center_, scaler.scale_, xp))
    return Y, binned, folds


def per_fold_vectors(est, Y, binned, folds) -> np.ndarray:
    """Each fold fitted solo from the shared bins in its scaling."""
    out = []
    for mask, center, scale, xp in folds:
        fitted = est.clone().fit_binned(
            binned.scaled(center, scale).take_rows(mask), Y[mask]
        )
        out.append(fitted.predict(xp[None, :])[0])
    return np.stack(out)


#: (fixture, subsample, colsample) -> digest of ``fit(X, Y).predict(Q)``;
#: ``fit_binned`` on ``X``'s binned matrix must give the same digest.
SOLO_HIST = {
    ("lossless", 1.0, 1.0): "9c68aee07ea87d30",
    ("lossless", 1.0, 0.5): "a2f3a80604912950",
    ("lossless", 0.5, 1.0): "79830374267d1370",
    ("lossless", 0.5, 0.5): "01756d4908208510",
    ("lossy", 1.0, 1.0): "9ea9cecd9f9cc9f1",
    ("lossy", 1.0, 0.5): "1804d1e379ec4c3f",
    ("lossy", 0.5, 1.0): "f6ea2978fea9fdee",  # re-recorded
    ("lossy", 0.5, 0.5): "ad6482c0a38b4ee7",
}

#: (fixture, subsample, colsample) -> digest of the per-fold solo fits;
#: the fold lockstep must give the same digest.
FOLDS_HIST = {
    ("lossless", 1.0, 1.0): "ff3f917def8c1570",
    ("lossless", 1.0, 0.5): "e29cb7c257307e50",
    ("lossless", 0.5, 1.0): "480ff575d3f06119",
    ("lossless", 0.5, 0.5): "3c448d6871050ff5",
    ("lossy", 1.0, 1.0): "54a803c064e67013",
    ("lossy", 1.0, 0.5): "de243fcd24af0abe",
    ("lossy", 0.5, 1.0): "07a44e4d37f31a1e",  # re-recorded
    ("lossy", 0.5, 0.5): "e0ab465fd12eb14d",  # re-recorded
}

#: (subsample, colsample) -> digest of exact-kernel ``fit(X, Y).predict(Q)``
#: on the lossless solo fixture.
SOLO_EXACT = {
    (1.0, 1.0): "9c68aee07ea87d30",
    (1.0, 0.5): "a2f3a80604912950",
    (0.5, 1.0): "45efacc017566063",
    (0.5, 0.5): "a132dd625836a87e",
}


@pytest.mark.parametrize("name", ["lossless", "lossy"])
@pytest.mark.parametrize("subsample,colsample", GRID)
def test_hist_fit(name, subsample, colsample):
    X, Y, Q = solo_fixture(name)
    pred = model(subsample, colsample).fit(X, Y).predict(Q)
    assert digest(pred) == SOLO_HIST[name, subsample, colsample]


@pytest.mark.parametrize("name", ["lossless", "lossy"])
@pytest.mark.parametrize("subsample,colsample", GRID)
def test_hist_fit_binned(name, subsample, colsample):
    X, Y, Q = solo_fixture(name)
    binned = BinMapper().fit_transform(X)
    pred = model(subsample, colsample).fit_binned(binned, Y).predict(Q)
    assert digest(pred) == SOLO_HIST[name, subsample, colsample]


@pytest.mark.parametrize("name", ["lossless", "lossy"])
@pytest.mark.parametrize("subsample,colsample", GRID)
def test_hist_folds(name, subsample, colsample):
    Y, binned, folds = fold_fixture(name)
    est = model(subsample, colsample)
    expected = FOLDS_HIST[name, subsample, colsample]
    assert digest(per_fold_vectors(est, Y, binned, folds)) == expected
    assert digest(np.stack(fit_predict_folds(est, binned, Y, folds))) == expected


@pytest.mark.parametrize("subsample,colsample", GRID)
def test_exact_fit(subsample, colsample):
    X, Y, Q = solo_fixture("lossless")
    pred = model(subsample, colsample, "exact").fit(X, Y).predict(Q)
    assert digest(pred) == SOLO_EXACT[subsample, colsample]

"""Exact-kernel trees and forests pinned bit for bit.

Each digest is the SHA-256 (first 16 hex digits) of a fitted model's
flat node arrays, ``_feature``, ``_threshold``, ``_left``, ``_right``
and ``_value`` in node-id order (a forest hashes its members in order).
They were recorded on the per-node sorting kernel, which re-sorted a
node's rows for every candidate column, before the sorted-row arena
and the forest's lockstep growth replaced it; the rebuilt kernel must
reproduce every one of them.

The ``ties`` fixtures draw small integers for ``X`` and ``Y`` and copy
columns onto other columns, so split scores tie exactly, across split
positions and across features.  ``bootstrap`` rows repeat rows the way
a forest's bagging draw does.  The ``CHUNKED`` cases force a
split-search chunk of 7 features, which pins the rule that an earlier
chunk wins a tied score.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

import repro.ml.tree as tree_mod
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import RegressionTree


def digest(trees) -> str:
    """First 16 hex digits of the SHA-256 of the trees' node arrays."""
    h = hashlib.sha256()
    for t in trees:
        for a in (t._feature, t._threshold, t._left, t._right, t._value):
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()[:16]


def fixture(xkind: str, k: int, d: int = 12):
    """(X, Y) of a fixture: ``float`` normal draws or tie-heavy ``ties``."""
    n = 90
    r = np.random.default_rng(20261019 + 7 * k + d)
    if xkind == "float":
        X = r.normal(size=(n, d))
        Y = r.normal(size=(n, k)) + X[:, :1]
    else:
        X = r.integers(0, 4, size=(n, d)).astype(np.float64)
        # Copies of earlier columns: every split on them ties exactly.
        X[:, d - 3 :] = X[:, [1, 2, 5]]
        Y = r.integers(0, 3, size=(n, k)).astype(np.float64) + X[:, :1]
    return X, Y


def sample_rows(kind: str, n: int = 90):
    """None (every row once) or a bootstrap draw with repeated rows."""
    if kind == "all":
        return None
    return np.random.default_rng(5).integers(0, n, size=n)


TREE_GRID = list(
    itertools.product(
        (None, "sqrt", 0.5),  # max_features
        (1, 3),  # min_samples_leaf
        (None, 4),  # max_depth
        ("float", "ties"),
        (1, 4, 32),  # outputs
        ("all", "bootstrap"),
    )
)

#: (max_features, min_samples_leaf, max_depth, xkind, k, rows) -> digest
TREE = {
    (None, 1, None, "float", 1, "all"): "e6a967a3540ea5d5",
    (None, 1, None, "float", 1, "bootstrap"): "50f1645708e0a273",
    (None, 1, None, "float", 4, "all"): "8372a69829175965",
    (None, 1, None, "float", 4, "bootstrap"): "c3a203eb46ab566a",
    (None, 1, None, "float", 32, "all"): "bc785d49f1ff0e71",
    (None, 1, None, "float", 32, "bootstrap"): "37f4db70613fff89",
    (None, 1, None, "ties", 1, "all"): "6960b3f1bf04c388",
    (None, 1, None, "ties", 1, "bootstrap"): "d47a69e0d2b2be02",
    (None, 1, None, "ties", 4, "all"): "d2863abc9381f33d",
    (None, 1, None, "ties", 4, "bootstrap"): "e4bbc5d332f15dfc",
    (None, 1, None, "ties", 32, "all"): "f4d2c8b4fd183df6",
    (None, 1, None, "ties", 32, "bootstrap"): "783c09e3f8636aae",
    (None, 1, 4, "float", 1, "all"): "7cdb642267143e05",
    (None, 1, 4, "float", 1, "bootstrap"): "253bbf0e84061eb1",
    (None, 1, 4, "float", 4, "all"): "c709772e176bb35f",
    (None, 1, 4, "float", 4, "bootstrap"): "a4f8ed46047fc88a",
    (None, 1, 4, "float", 32, "all"): "b3dee434a6e64e1f",
    (None, 1, 4, "float", 32, "bootstrap"): "c3dc6d5bcb157512",
    (None, 1, 4, "ties", 1, "all"): "d991190c75dc6a57",
    (None, 1, 4, "ties", 1, "bootstrap"): "29b46fba90137d08",
    (None, 1, 4, "ties", 4, "all"): "c8c35c27dabef202",
    (None, 1, 4, "ties", 4, "bootstrap"): "e2e7d913592b1c6a",
    (None, 1, 4, "ties", 32, "all"): "36ef171fd0a5866e",
    (None, 1, 4, "ties", 32, "bootstrap"): "8a9d827a2f76666f",
    (None, 3, None, "float", 1, "all"): "fd3dc01ac55b7f34",
    (None, 3, None, "float", 1, "bootstrap"): "649ff3772764db16",
    (None, 3, None, "float", 4, "all"): "6f22d5f8d6d2387a",
    (None, 3, None, "float", 4, "bootstrap"): "50d3c8678ea97645",
    (None, 3, None, "float", 32, "all"): "6fbe88a8c7510b81",
    (None, 3, None, "float", 32, "bootstrap"): "da1d34a2ef7aa87f",
    (None, 3, None, "ties", 1, "all"): "6632245105832e1b",
    (None, 3, None, "ties", 1, "bootstrap"): "44e742890a9ab213",
    (None, 3, None, "ties", 4, "all"): "f03914c4c3b58274",
    (None, 3, None, "ties", 4, "bootstrap"): "287a10d06f1fb809",
    (None, 3, None, "ties", 32, "all"): "76d07d6fde355437",
    (None, 3, None, "ties", 32, "bootstrap"): "f1cd6a5ed8c35f6c",
    (None, 3, 4, "float", 1, "all"): "47caf5b18e65b480",
    (None, 3, 4, "float", 1, "bootstrap"): "6fde4f96bc549fb3",
    (None, 3, 4, "float", 4, "all"): "abd4fe3c8018abc3",
    (None, 3, 4, "float", 4, "bootstrap"): "400c2ece21682113",
    (None, 3, 4, "float", 32, "all"): "55def9b7d24bd761",
    (None, 3, 4, "float", 32, "bootstrap"): "85aa9361cb79c2e5",
    (None, 3, 4, "ties", 1, "all"): "9e55ed9d6f6591c9",
    (None, 3, 4, "ties", 1, "bootstrap"): "36fe2c04392e448b",
    (None, 3, 4, "ties", 4, "all"): "9040d1554eb873ef",
    (None, 3, 4, "ties", 4, "bootstrap"): "e3c2760df76a1b1f",
    (None, 3, 4, "ties", 32, "all"): "638618be552c3471",
    (None, 3, 4, "ties", 32, "bootstrap"): "dba4f1b09db07f1d",
    ("sqrt", 1, None, "float", 1, "all"): "73a226e5592de3c7",
    ("sqrt", 1, None, "float", 1, "bootstrap"): "0f20c1d04c8df5fe",
    ("sqrt", 1, None, "float", 4, "all"): "a6657e5abb055c10",
    ("sqrt", 1, None, "float", 4, "bootstrap"): "a3c6a41a9c62166d",
    ("sqrt", 1, None, "float", 32, "all"): "67224f1f42a7b041",
    ("sqrt", 1, None, "float", 32, "bootstrap"): "792dbd24cf542c14",
    ("sqrt", 1, None, "ties", 1, "all"): "09d7cc07bb741d4a",
    ("sqrt", 1, None, "ties", 1, "bootstrap"): "701ab0b3da9eb4a7",
    ("sqrt", 1, None, "ties", 4, "all"): "f745dc2b4091963a",
    ("sqrt", 1, None, "ties", 4, "bootstrap"): "c2690baae642e06f",
    ("sqrt", 1, None, "ties", 32, "all"): "1b0c8cae1a615567",
    ("sqrt", 1, None, "ties", 32, "bootstrap"): "a9290c040fda4bff",
    ("sqrt", 1, 4, "float", 1, "all"): "b4d4296f34489760",
    ("sqrt", 1, 4, "float", 1, "bootstrap"): "482f945e72206f18",
    ("sqrt", 1, 4, "float", 4, "all"): "252bf5933bb9f5e1",
    ("sqrt", 1, 4, "float", 4, "bootstrap"): "331dcf36cc720951",
    ("sqrt", 1, 4, "float", 32, "all"): "e1c22f55b97420c5",
    ("sqrt", 1, 4, "float", 32, "bootstrap"): "864be7dbdf3b30ec",
    ("sqrt", 1, 4, "ties", 1, "all"): "960a738bd502d6bf",
    ("sqrt", 1, 4, "ties", 1, "bootstrap"): "4e27cca54c5ed794",
    ("sqrt", 1, 4, "ties", 4, "all"): "bcfbac450a814297",
    ("sqrt", 1, 4, "ties", 4, "bootstrap"): "1c8a8e4f3d2ea422",
    ("sqrt", 1, 4, "ties", 32, "all"): "453572b0b5a8fbe1",
    ("sqrt", 1, 4, "ties", 32, "bootstrap"): "47b8e6e11809ffdf",
    ("sqrt", 3, None, "float", 1, "all"): "0d1b2a962a609a4a",
    ("sqrt", 3, None, "float", 1, "bootstrap"): "c13815b02a7cad68",
    ("sqrt", 3, None, "float", 4, "all"): "fd54939138166e94",
    ("sqrt", 3, None, "float", 4, "bootstrap"): "ec067b8511ee8213",
    ("sqrt", 3, None, "float", 32, "all"): "37b7c228faf7fe4c",
    ("sqrt", 3, None, "float", 32, "bootstrap"): "184227662f8f48a2",
    ("sqrt", 3, None, "ties", 1, "all"): "4bba93fc3dc63433",
    ("sqrt", 3, None, "ties", 1, "bootstrap"): "15e8a54fe7a7f7bd",
    ("sqrt", 3, None, "ties", 4, "all"): "13c9891785938f17",
    ("sqrt", 3, None, "ties", 4, "bootstrap"): "cae57958466e9c04",
    ("sqrt", 3, None, "ties", 32, "all"): "972914431eab0ff0",
    ("sqrt", 3, None, "ties", 32, "bootstrap"): "704379274f89ab64",
    ("sqrt", 3, 4, "float", 1, "all"): "1e031ab82de751ab",
    ("sqrt", 3, 4, "float", 1, "bootstrap"): "7bf6df5e8dd31077",
    ("sqrt", 3, 4, "float", 4, "all"): "9cc8bccb38d67f68",
    ("sqrt", 3, 4, "float", 4, "bootstrap"): "53eca3be010c8ba7",
    ("sqrt", 3, 4, "float", 32, "all"): "1f25fb946a31abe1",
    ("sqrt", 3, 4, "float", 32, "bootstrap"): "cac60a1d2fa6bb7a",
    ("sqrt", 3, 4, "ties", 1, "all"): "0bf6d914956a24d9",
    ("sqrt", 3, 4, "ties", 1, "bootstrap"): "ee16e9daf293e869",
    ("sqrt", 3, 4, "ties", 4, "all"): "82c57b6270df863c",
    ("sqrt", 3, 4, "ties", 4, "bootstrap"): "803accf817894c00",
    ("sqrt", 3, 4, "ties", 32, "all"): "b45274dda19005f2",
    ("sqrt", 3, 4, "ties", 32, "bootstrap"): "2a48b472b65e4c7a",
    (0.5, 1, None, "float", 1, "all"): "675968540b1a27e8",
    (0.5, 1, None, "float", 1, "bootstrap"): "0edee4d256495ffe",
    (0.5, 1, None, "float", 4, "all"): "211047932e2dc8bc",
    (0.5, 1, None, "float", 4, "bootstrap"): "744dd1b1e632e292",
    (0.5, 1, None, "float", 32, "all"): "7ec2400759f22a6d",
    (0.5, 1, None, "float", 32, "bootstrap"): "230b485b19e2aa25",
    (0.5, 1, None, "ties", 1, "all"): "8ae8614d786004bd",
    (0.5, 1, None, "ties", 1, "bootstrap"): "1a8c821a77e717f7",
    (0.5, 1, None, "ties", 4, "all"): "ba4ad417b7d4a4f1",
    (0.5, 1, None, "ties", 4, "bootstrap"): "b511d3792d5832aa",
    (0.5, 1, None, "ties", 32, "all"): "72243f93ead977d1",
    (0.5, 1, None, "ties", 32, "bootstrap"): "a15d7564cccf834c",
    (0.5, 1, 4, "float", 1, "all"): "993ed170de2e9ea1",
    (0.5, 1, 4, "float", 1, "bootstrap"): "984bb2a1b37b6a14",
    (0.5, 1, 4, "float", 4, "all"): "7a63b00a15ef8eef",
    (0.5, 1, 4, "float", 4, "bootstrap"): "60b6e302b27b582b",
    (0.5, 1, 4, "float", 32, "all"): "9c86968a80a244af",
    (0.5, 1, 4, "float", 32, "bootstrap"): "3adb50fe2a9ae3fe",
    (0.5, 1, 4, "ties", 1, "all"): "6dea6c22d0c7b97a",
    (0.5, 1, 4, "ties", 1, "bootstrap"): "2cb0925a218459c2",
    (0.5, 1, 4, "ties", 4, "all"): "4f271b76710d4d93",
    (0.5, 1, 4, "ties", 4, "bootstrap"): "9c305c6b5aeb94ad",
    (0.5, 1, 4, "ties", 32, "all"): "b6504d701631fc35",
    (0.5, 1, 4, "ties", 32, "bootstrap"): "d9fe4b4362d832ce",
    (0.5, 3, None, "float", 1, "all"): "c7432b612ed2d4b0",
    (0.5, 3, None, "float", 1, "bootstrap"): "c4fe2ab49576f00b",
    (0.5, 3, None, "float", 4, "all"): "1dee6ac1dab1616e",
    (0.5, 3, None, "float", 4, "bootstrap"): "726879ed4990c4b9",
    (0.5, 3, None, "float", 32, "all"): "cca9021631b4baec",
    (0.5, 3, None, "float", 32, "bootstrap"): "b248e35a85de75ac",
    (0.5, 3, None, "ties", 1, "all"): "8156cafa5019ff17",
    (0.5, 3, None, "ties", 1, "bootstrap"): "e183665434dd7669",
    (0.5, 3, None, "ties", 4, "all"): "1547337b300073d5",
    (0.5, 3, None, "ties", 4, "bootstrap"): "dfb13f9f72a3ccbc",
    (0.5, 3, None, "ties", 32, "all"): "590df4e4e857e34a",
    (0.5, 3, None, "ties", 32, "bootstrap"): "c61fddf99bb9690a",
    (0.5, 3, 4, "float", 1, "all"): "ab6b6efaeeec9e73",
    (0.5, 3, 4, "float", 1, "bootstrap"): "22d44984baf611e2",
    (0.5, 3, 4, "float", 4, "all"): "4738f17ff12f50e5",
    (0.5, 3, 4, "float", 4, "bootstrap"): "48a6860855ec5645",
    (0.5, 3, 4, "float", 32, "all"): "dc7f9ead0fda7e2e",
    (0.5, 3, 4, "float", 32, "bootstrap"): "a6177680494f4ba1",
    (0.5, 3, 4, "ties", 1, "all"): "231715a0c15b2eac",
    (0.5, 3, 4, "ties", 1, "bootstrap"): "3697f3b6e1ac31fd",
    (0.5, 3, 4, "ties", 4, "all"): "8d8664c5eacc271b",
    (0.5, 3, 4, "ties", 4, "bootstrap"): "5b1d2b06faf4ad11",
    (0.5, 3, 4, "ties", 32, "all"): "d8fa0ae2c17679eb",
    (0.5, 3, 4, "ties", 32, "bootstrap"): "6babe0c335db313d",
}

FOREST_GRID = list(
    itertools.product(
        (True, False),  # bootstrap
        ("sqrt", 0.5, None),  # max_features
        ((None, 1), (4, 3)),  # (max_depth, min_samples_leaf)
        ("float", "ties"),
        (1, 32),  # outputs
    )
)

#: (bootstrap, max_features, (max_depth, min_leaf), xkind, k) -> digest
FOREST = {
    (True, "sqrt", (None, 1), "float", 1): "d6f3e243d87d993b",
    (True, "sqrt", (None, 1), "float", 32): "c10884c69fcc626d",
    (True, "sqrt", (None, 1), "ties", 1): "f89de6b9548733e9",
    (True, "sqrt", (None, 1), "ties", 32): "b7f7a1cda858e87c",
    (True, "sqrt", (4, 3), "float", 1): "cc82c1e361557d2a",
    (True, "sqrt", (4, 3), "float", 32): "971d94090578611c",
    (True, "sqrt", (4, 3), "ties", 1): "dec9302ad56ee059",
    (True, "sqrt", (4, 3), "ties", 32): "497e0f6c968c50ed",
    (True, 0.5, (None, 1), "float", 1): "3efd86b12656f360",
    (True, 0.5, (None, 1), "float", 32): "46a7a472319f1076",
    (True, 0.5, (None, 1), "ties", 1): "581714cac76791ec",
    (True, 0.5, (None, 1), "ties", 32): "47258768100031e4",
    (True, 0.5, (4, 3), "float", 1): "d9c9efb3a5d8e79c",
    (True, 0.5, (4, 3), "float", 32): "8694e7e7dda8cac7",
    (True, 0.5, (4, 3), "ties", 1): "c734987638683914",
    (True, 0.5, (4, 3), "ties", 32): "4a4d92ec54df281d",
    (True, None, (None, 1), "float", 1): "c4cbb938f87d3a6a",
    (True, None, (None, 1), "float", 32): "9350826996aa9d6e",
    (True, None, (None, 1), "ties", 1): "c6b3715ecf4fa5d4",
    (True, None, (None, 1), "ties", 32): "aa8797a94f01caaa",
    (True, None, (4, 3), "float", 1): "b7e08ffc4a57dc9d",
    (True, None, (4, 3), "float", 32): "172102e0d9a40cae",
    (True, None, (4, 3), "ties", 1): "0882cc042470249f",
    (True, None, (4, 3), "ties", 32): "6c216bd9dc48d2c4",
    (False, "sqrt", (None, 1), "float", 1): "5eae05412c678479",
    (False, "sqrt", (None, 1), "float", 32): "b61b1737c058f345",
    (False, "sqrt", (None, 1), "ties", 1): "20275dd463c3d5d4",
    (False, "sqrt", (None, 1), "ties", 32): "11b53663221039fe",
    (False, "sqrt", (4, 3), "float", 1): "c2f4ac2175b920c3",
    (False, "sqrt", (4, 3), "float", 32): "b735caeab041b635",
    (False, "sqrt", (4, 3), "ties", 1): "be834acf0959606a",
    (False, "sqrt", (4, 3), "ties", 32): "aeb5e9c2c9a7fbd8",
    (False, 0.5, (None, 1), "float", 1): "a9ce931a4a6286e9",
    (False, 0.5, (None, 1), "float", 32): "406b49c1a74f6e59",
    (False, 0.5, (None, 1), "ties", 1): "b4888ed3e0d2f80a",
    (False, 0.5, (None, 1), "ties", 32): "5ef74b8795e3ff90",
    (False, 0.5, (4, 3), "float", 1): "b6a3a26dfb528bfa",
    (False, 0.5, (4, 3), "float", 32): "ac6168450268e007",
    (False, 0.5, (4, 3), "ties", 1): "56a0a386b1a7d4d6",
    (False, 0.5, (4, 3), "ties", 32): "cdb21fe29d6723cb",
    (False, None, (None, 1), "float", 1): "e3cc5a6f94e12f59",
    (False, None, (None, 1), "float", 32): "9fe6303cc4e7069f",
    (False, None, (None, 1), "ties", 1): "ddc0699b99904207",
    (False, None, (None, 1), "ties", 32): "d480561369a14840",
    (False, None, (4, 3), "float", 1): "b3d26f61b25f4a4f",
    (False, None, (4, 3), "float", 32): "04f171634b9b86e1",
    (False, None, (4, 3), "ties", 1): "cabfa578f390c8f7",
    (False, None, (4, 3), "ties", 32): "c4d1250a30280104",
}

#: (model, xkind) -> digest under a forced 7-feature chunk, 40 columns
CHUNKED = {
    ("tree", "float"): "f16bfdc25321d300",
    ("tree", "ties"): "0a6158a43d84ed79",
    ("tree-0.5", "float"): "7192e0560d3ad1e5",
    ("tree-0.5", "ties"): "4755f6c60d257a6e",
    ("forest", "float"): "a76fc90bee0d63ae",
    ("forest", "ties"): "130f6d0fda29933b",
}


@pytest.mark.parametrize("case", TREE_GRID, ids=str)
def test_tree(case):
    max_features, min_leaf, max_depth, xkind, k, rows = case
    X, Y = fixture(xkind, k)
    t = RegressionTree(
        max_depth=max_depth,
        min_samples_leaf=min_leaf,
        max_features=max_features,
        rng=11,
    ).fit(X, Y, sample_indices=sample_rows(rows))
    assert digest([t]) == TREE[case]


@pytest.mark.parametrize("case", FOREST_GRID, ids=str)
def test_forest(case):
    bootstrap, max_features, (max_depth, min_leaf), xkind, k = case
    X, Y = fixture(xkind, k)
    f = RandomForestRegressor(
        6,
        max_depth=max_depth,
        min_samples_leaf=min_leaf,
        max_features=max_features,
        bootstrap=bootstrap,
        rng=3,
    ).fit(X, Y)
    assert digest(f.trees_) == FOREST[case]


def chunked_model(name: str):
    if name == "tree":
        return RegressionTree(max_depth=6, rng=4)
    if name == "tree-0.5":
        return RegressionTree(max_features=0.5, rng=4)
    return RandomForestRegressor(4, max_features=0.5, rng=4)


@pytest.mark.parametrize("name", ["tree", "tree-0.5", "forest"])
@pytest.mark.parametrize("xkind", ["float", "ties"])
def test_forced_chunk(monkeypatch, name, xkind):
    X, Y = fixture(xkind, 4, d=40)
    monkeypatch.setattr(tree_mod, "_feature_chunk", lambda n, k: 7)
    m = chunked_model(name).fit(X, Y)
    trees = m.trees_ if name == "forest" else [m]
    assert digest(trees) == CHUNKED[name, xkind]

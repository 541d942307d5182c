"""The repository benchmark's traced hooks still resolve against the program.

``bench/layers.py`` wraps grid and serving attributes by name (both
designs' ``__init__`` and ``fold_vectors``, both use-case modules'
``score_fold_vectors``, ``engine.fit_predict_folds``,
``FewRunsPredictor.predict_vector``, ...).  A renamed or deleted one
makes ``python3 bench/run.py --trace 1`` die with ``AttributeError``
before it measures anything; these tests install every hook, check that
each took effect, run a tiny traced pass of both grids and restore the
program.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments import usecase1, usecase2
from repro.experiments.config import ExperimentConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: bench/ modules imported by these tests, dropped from sys.modules again
#: so their generic top-level names cannot shadow anything later.
_BENCH_MODULES = ("common", "layers", "tracer")


@pytest.fixture
def bench(monkeypatch):
    """(layers module, a fresh Tracer) with bench/ importable."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import tracer

    yield layers, tracer.Tracer()
    for name in _BENCH_MODULES:
        sys.modules.pop(name, None)


def _install(tracer, install) -> list[tuple[object, str, object]]:
    """Run *install*; returns (owner, attribute, wrapped original) per hook."""
    install(tracer)
    hooks = [(owner, attr, getattr(owner, attr)) for owner, attr, _own in tracer._patches]
    return [(owner, attr, wrapper.__wrapped__) for owner, attr, wrapper in hooks]


@pytest.mark.parametrize("install", ["install_grid", "install_server"])
def test_every_hook_installs_and_restores(bench, install):
    layers, tracer = bench
    try:
        hooks = _install(tracer, getattr(layers, install))
    finally:
        patched = list(tracer._patches)
        tracer.restore()
    assert hooks and len(hooks) == len(patched)
    for owner, attr, original in hooks:
        assert getattr(owner, attr) == original, f"{owner!r}.{attr} not restored"


CFG = ExperimentConfig(
    benchmarks=("npb/cg", "npb/is", "npb/bt", "rodinia/heartwall"),
    n_runs=60,
    n_probe_runs=8,
    n_replicas_uc1=2,
    n_replicas_uc2=2,
    models=("knn",),
    root_seed=11,
)


@pytest.mark.parametrize("use_case", ["uc1", "uc2"])
def test_traced_grid_reaches_every_grid_layer(bench, use_case):
    layers, tracer = bench
    intel = usecase1.measure_campaigns(CFG, "intel")
    amd = usecase1.measure_campaigns(CFG, "amd")
    try:
        layers.install_grid(tracer)
        if use_case == "uc1":
            usecase1.representation_model_grid(intel, CFG)
        else:
            usecase2.representation_model_grid(amd, intel, CFG)
    finally:
        tracer.restore()
    metrics = layers.grid_metrics(tracer.spans)
    for name in ("core.design_s", "core.fold_vectors_s", "core.score_s", "stats.ks_s"):
        assert metrics[name] > 0.0, name
    for rep in ("histogram", "pymaxent", "pearsonrnd"):
        assert metrics[f"cell.{rep}-knn_s"] > 0.0, rep

"""Cross-module property tests on pipeline invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.core.engine import CrossSystemDesign, FewRunsDesign
from repro.core.evaluation import score_fold_vectors
from repro.core.features import FeatureConfig, profile_features
from repro.core.representations import (
    HistogramRepresentation,
    PearsonRndRepresentation,
)
from repro.data.dataset import RunCampaign
from repro.simbench import measure_all


def _campaign_from(runtimes, rates):
    rt = np.asarray(runtimes)
    r = np.asarray(rates)
    return RunCampaign(
        "p/q", "intel", rt, r * rt[:, None], tuple(f"m{i}" for i in range(r.shape[1]))
    )


@given(
    n_runs=st.integers(2, 30),
    scale=st.floats(0.1, 1000.0),
)
@settings(max_examples=40, deadline=None)
def test_property_features_invariant_to_runtime_scale(n_runs, scale):
    """Multiplying all runtimes by a constant while keeping per-second
    rates fixed must not change the profile features (the paper's
    normalization guarantee)."""
    rng = np.random.default_rng(0)
    rates = rng.uniform(10.0, 100.0, size=(n_runs, 4))
    rt = rng.uniform(1.0, 2.0, size=n_runs)
    f1 = profile_features(_campaign_from(rt, rates))
    f2 = profile_features(_campaign_from(rt * scale, rates))
    assert np.allclose(f1, f2, rtol=1e-8, atol=1e-10)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_property_histogram_encode_decode_preserves_mass(seed):
    """Encoding then decoding any sample keeps total probability 1 and
    the CDF within [0, 1]."""
    rng = np.random.default_rng(seed)
    samples = rng.normal(1.0, rng.uniform(0.01, 0.2), size=200)
    rep = HistogramRepresentation()
    recon = rep.reconstruct(rep.encode(samples))
    grid = np.linspace(0.5, 2.0, 100)
    cdf = recon.cdf(grid)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[-1] == pytest.approx(1.0)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_property_pearson_roundtrip_moments(seed):
    """encode -> reconstruct -> sample approximately recovers the first
    two moments for arbitrary positive samples."""
    rng = np.random.default_rng(seed)
    samples = rng.gamma(rng.uniform(2, 30), 1.0, size=500)
    samples = samples / samples.mean()
    rep = PearsonRndRepresentation()
    recon = rep.reconstruct(rep.encode(samples))
    out = recon.sample(4000, rng=rng)
    assert out.mean() == pytest.approx(samples.mean(), abs=0.05)
    assert out.std() == pytest.approx(samples.std(), rel=0.35, abs=0.01)


@given(
    n_probe=st.integers(1, 20),
)
@settings(max_examples=10, deadline=None)
def test_property_feature_dim_independent_of_probe_size(n_probe):
    """Feature vectors have fixed length regardless of probe size — a
    model trained at one probe size accepts any other."""
    rng = np.random.default_rng(1)
    rates = rng.uniform(1.0, 10.0, size=(n_probe, 5))
    rt = rng.uniform(0.5, 1.5, size=n_probe)
    f = profile_features(_campaign_from(rt, rates), FeatureConfig())
    assert f.shape == (5 * 4,)


#: The benchmarks of the zero-variance property; one at a time is made
#: constant.
_ZV_BENCHES = (
    "npb/bt", "npb/cg", "npb/is", "parsec/canneal", "spec_omp/376",
    "spec_accel/303",
)


@pytest.fixture(scope="module")
def zv_systems():
    """(intel, amd) campaigns of ``_ZV_BENCHES``, 40 runs each."""
    kw = dict(benchmarks=_ZV_BENCHES, n_runs=40, n_workers=1)
    return measure_all("intel", **kw), measure_all("amd", **kw)


def _constant(campaign, runtime, counter_scale):
    """*campaign* with every run identical: zero variance everywhere."""
    n = campaign.n_runs
    return RunCampaign(
        campaign.benchmark,
        campaign.system,
        np.full(n, runtime),
        np.tile(campaign.counters[0] * counter_scale, (n, 1)),
        campaign.metric_names,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(
    which=st.sampled_from(_ZV_BENCHES),
    runtime=st.floats(1e-6, 1e3),
    counter_scale=st.floats(1e-9, 1e6),
)
@settings(max_examples=3, deadline=None)
def test_property_zero_variance_campaign_stays_finite(
    zv_systems, which, runtime, counter_scale
):
    """A campaign whose runs are all identical, as the held-out probe of
    its own LOGO fold and as training data of every other fold, gives
    finite fold vectors, KS scores and draws in all nine (representation,
    model) cells of both use cases, without a RuntimeWarning."""
    intel, amd = (dict(c) for c in zv_systems)
    intel[which] = _constant(intel[which], runtime, counter_scale)
    amd[which] = _constant(amd[which], runtime, counter_scale)
    designs = (
        FewRunsDesign(intel, n_probe_runs=10, n_replicas=3, seed=1),
        CrossSystemDesign(amd, intel, n_replicas=2, seed=1),
    )
    rng = np.random.default_rng(0)
    for rep_name, model_name in itertools.product(
        ("histogram", "pymaxent", "pearsonrnd"), ("knn", "rf", "xgboost")
    ):
        rep = registry.representation(rep_name)
        for design in designs:
            vectors = design.fold_vectors(registry.model(model_name), rep)
            assert all(np.isfinite(v).all() for v in vectors.values())
            ks = score_fold_vectors(vectors, rep, design.measured, seed=3)["ks"]
            assert np.isfinite(ks).all()
            draws = rep.reconstruct(vectors[which]).sample(200, rng=rng)
            assert np.isfinite(draws).all()

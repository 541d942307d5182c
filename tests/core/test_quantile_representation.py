"""Tests for the quantile-representation extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantile_representation import QuantileRepresentation
from repro.registry import representation as representation_by_name
from repro.errors import ValidationError


class TestRegistry:
    def test_available_via_registry(self):
        rep = representation_by_name("quantile")
        assert isinstance(rep, QuantileRepresentation)

    def test_custom_size(self):
        rep = representation_by_name("quantile", n_quantiles=12)
        assert rep.n_dims == 12


class TestEncodeDecode:
    def test_encode_is_sorted(self, rng):
        rep = QuantileRepresentation()
        v = rep.encode(rng.normal(1.0, 0.05, 500))
        assert np.all(np.diff(v) >= 0.0)

    def test_roundtrip_low_ks(self, rng):
        rep = QuantileRepresentation(n_quantiles=32)
        x = np.concatenate([rng.normal(0.97, 0.01, 700), rng.normal(1.08, 0.01, 300)])
        assert rep.ks_score(rep.encode(x), x, rng=rng) < 0.06

    def test_unsorted_prediction_repaired(self, rng):
        rep = QuantileRepresentation(n_quantiles=5)
        recon = rep.reconstruct([1.1, 0.9, 1.0, 1.3, 1.2])
        s = recon.sample(1000, rng=rng)
        assert np.all((s >= 0.9) & (s <= 1.3))

    def test_cdf_monotone(self, rng):
        rep = QuantileRepresentation()
        recon = rep.reconstruct(rep.encode(rng.exponential(size=400) + 0.5))
        grid = np.linspace(0.0, 10.0, 200)
        c = recon.cdf(grid)
        assert np.all(np.diff(c) >= -1e-12)
        assert c[0] == 0.0
        assert c[-1] == 1.0

    def test_wrong_length(self):
        rep = QuantileRepresentation(n_quantiles=8)
        with pytest.raises(ValidationError):
            rep.reconstruct(np.ones(9))

    def test_too_few_levels(self):
        with pytest.raises(ValidationError):
            QuantileRepresentation(n_quantiles=2)

    def test_captures_bimodality(self, rng):
        rep = QuantileRepresentation(n_quantiles=32)
        x = np.concatenate([rng.normal(0.95, 0.005, 600), rng.normal(1.1, 0.005, 400)])
        recon = rep.reconstruct(rep.encode(x))
        s = recon.sample(4000, rng=rng)
        frac_between = np.mean((s > 1.0) & (s < 1.05))
        assert frac_between < 0.08


@given(seed=st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_property_sample_within_predicted_range(seed):
    """Decoded samples never leave the [min, max] of the quantile vector."""
    rng = np.random.default_rng(seed)
    rep = QuantileRepresentation(n_quantiles=16)
    v = np.sort(rng.uniform(0.8, 1.4, size=16))
    s = rep.reconstruct(v).sample(500, rng=rng)
    assert s.min() >= v[0] - 1e-12
    assert s.max() <= v[-1] + 1e-12

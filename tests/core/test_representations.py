"""Tests for the three distribution representations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.representations import (
    REPRESENTATIONS,
    HistogramRepresentation,
    PearsonRndRepresentation,
    PyMaxEntRepresentation,
)
from repro.errors import ValidationError
from repro.registry import representation as representation_by_name
from repro.stats.histogram import HistogramGrid


@pytest.fixture()
def bimodal(rng):
    return np.concatenate(
        [rng.normal(0.97, 0.01, size=700), rng.normal(1.08, 0.01, size=300)]
    )


class TestRegistry:
    def test_names(self):
        # The paper's three are always present; the quantile extension is
        # registered lazily on the first registry lookup.
        assert {"histogram", "pymaxent", "pearsonrnd"} <= set(REPRESENTATIONS)

    def test_get_by_name_case_insensitive(self):
        assert isinstance(representation_by_name("PearsonRnd"), PearsonRndRepresentation)

    def test_unknown(self):
        with pytest.raises(ValidationError):
            representation_by_name("wavelets")


class TestHistogramRepresentation:
    def test_encode_dims(self, bimodal):
        rep = HistogramRepresentation()
        assert rep.encode(bimodal).shape == (rep.n_dims,)

    def test_roundtrip_low_ks(self, bimodal, rng):
        # Bound set by discretization: default bins are 0.02 wide vs
        # mode sigma 0.01, so the roundtrip cannot be arbitrarily tight.
        rep = HistogramRepresentation()
        vec = rep.encode(bimodal)
        assert rep.ks_score(vec, bimodal, rng=rng) < 0.08

    def test_reconstruct_wrong_length(self):
        rep = HistogramRepresentation()
        with pytest.raises(ValidationError):
            rep.reconstruct(np.ones(7))

    def test_histogram_captures_bimodality(self, bimodal, rng):
        rep = HistogramRepresentation(HistogramGrid(0.9, 1.2, 40))
        recon = rep.reconstruct(rep.encode(bimodal))
        s = recon.sample(5000, rng=rng)
        # Essentially no mass between the modes.
        frac_between = np.mean((s > 1.0) & (s < 1.05))
        assert frac_between < 0.05


class TestMomentRepresentations:
    @pytest.mark.parametrize("cls", [PearsonRndRepresentation, PyMaxEntRepresentation])
    def test_encode_is_moment_vector(self, cls, rng):
        x = rng.normal(1.0, 0.05, size=2000)
        vec = cls().encode(x)
        assert vec.shape == (4,)
        assert vec[0] == pytest.approx(1.0, abs=0.01)
        assert vec[1] == pytest.approx(0.05, rel=0.1)

    def test_pearson_unimodal_roundtrip(self, rng):
        rep = PearsonRndRepresentation()
        x = rng.gamma(9.0, 0.01, size=3000) + 0.9
        vec = rep.encode(x)
        ks = rep.ks_score(vec, x, rng=rng)
        assert ks < 0.08

    def test_pearson_infeasible_vector_projected(self, rng):
        rep = PearsonRndRepresentation()
        recon = rep.reconstruct([1.0, 0.05, 2.0, 2.0])  # infeasible
        s = recon.sample(1000, rng=rng)
        assert np.isfinite(s).all()

    def test_pearson_analytic_cdf_mode(self, rng):
        rep = PearsonRndRepresentation(use_analytic_cdf=True)
        x = rng.normal(1.0, 0.05, size=2000)
        ks = rep.ks_score(rep.encode(x), x, rng=rng)
        assert ks < 0.05

    def test_pymaxent_infeasible_degrades_to_normal(self, rng):
        rep = PyMaxEntRepresentation()
        recon = rep.reconstruct([1.0, 0.05, 2.0, 2.0])
        s = recon.sample(2000, rng=rng)
        # Degraded decode is a plain normal with the requested scale.
        assert abs(s.mean() - 1.0) < 0.01
        assert abs(s.std() - 0.05) < 0.01
        from repro.stats.moments import moment_vector

        assert abs(moment_vector(s).skew) < 0.3

    def test_pymaxent_feasible_keeps_shape(self, rng):
        rep = PyMaxEntRepresentation()
        recon = rep.reconstruct([1.0, 0.05, 0.8, 4.0])
        s = recon.sample(100_000, rng=rng)
        from repro.stats.moments import moment_vector

        assert moment_vector(s).skew == pytest.approx(0.8, abs=0.1)

    def test_moment_reps_cannot_capture_bimodality(self, bimodal, rng):
        """Four moments blur two modes into one hump — KS stays well above
        the histogram representation's (the paper's Fig.-1 story in
        reverse: this gap is the price PearsonRnd pays on multimodal
        apps)."""
        hist = HistogramRepresentation(HistogramGrid(0.9, 1.2, 40))
        pears = PearsonRndRepresentation()
        ks_hist = hist.ks_score(hist.encode(bimodal), bimodal, rng=rng)
        ks_pears = pears.ks_score(pears.encode(bimodal), bimodal, rng=rng)
        assert ks_pears > ks_hist + 0.05

    def test_wrong_vector_length(self):
        with pytest.raises(ValidationError):
            PearsonRndRepresentation().reconstruct([1.0, 2.0])
        with pytest.raises(ValidationError):
            PyMaxEntRepresentation().reconstruct([1.0, 2.0, 3.0, 4.0, 5.0])


@given(
    mean=st.floats(0.9, 1.1),
    std=st.floats(0.005, 0.1),
    skew=st.floats(-1.5, 1.5),
    excess=st.floats(0.2, 4.0),
)
@settings(max_examples=25, deadline=None)
def test_property_any_predicted_vector_reconstructs(mean, std, skew, excess):
    """PearsonRnd must decode *any* regression output without crashing."""
    kurt = skew * skew + 1.0 + excess
    rep = PearsonRndRepresentation(n_draws=200)
    recon = rep.reconstruct([mean, std, skew, kurt])
    s = recon.sample(500, rng=np.random.default_rng(0))
    assert np.isfinite(s).all()

"""Tests for the shared lognormal percentile→moment helpers.

These formulas were extracted from the fleet admission controller; the
controller must keep using the *same* functions (not copies), and the
closed forms must agree with brute-force lognormal samples.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.stats import lognormal as ln
from repro.serving.fleet import admission


class TestAdmissionEquivalence:
    def test_gate_estimates_are_the_shared_percentile_formula(self):
        # Bit-equal to the shared closed form on the window's p50/p90:
        # the gate must use this code, not a copy of it.
        gate = admission.KingmanAdmission(admission.AdmissionConfig(min_samples=2))
        times = [0.001 * (1 + k % 7) ** 1.5 for k in range(64)]
        for t in times:
            gate.observe(t)
        p50, p90 = float(np.percentile(times, 50)), float(np.percentile(times, 90))
        sigma = ln.sigma_from_quantiles(p50, p90, ln.Z90)
        snap = gate.snapshot()
        assert snap.cs2 > 0.0
        assert snap.cs2 == math.expm1(sigma * sigma)
        assert snap.mean_service_s == p50 * math.exp(sigma * sigma / 2.0)

    def test_z90_matches_normal_quantile(self):
        from scipy.special import ndtri

        assert ln.Z90 == pytest.approx(float(ndtri(0.9)), abs=1e-15)

    def test_z99_matches_normal_quantile(self):
        from scipy.special import ndtri

        assert ln.Z99 == pytest.approx(float(ndtri(0.99)), abs=1e-15)


class TestClosedForms:
    def test_sigma_from_percentiles_recovers_sigma(self):
        mu, sigma = 1.3, 0.42
        p50 = math.exp(mu)
        p99 = math.exp(mu + sigma * ln.Z99)
        assert ln.sigma_from_percentiles(p50, p99) == pytest.approx(sigma)

    def test_cs2_from_percentiles_is_expm1_sigma_sq(self):
        mu, sigma = 0.0, 0.7
        p50 = math.exp(mu)
        p99 = math.exp(mu + sigma * ln.Z99)
        assert ln.cs2_from_percentiles(p50, p99) == pytest.approx(
            math.expm1(sigma**2)
        )

    def test_cs2_from_moments(self, rng):
        samples = rng.exponential(2.0, size=100_000)
        # Exponential has Cs^2 = 1 regardless of scale.
        assert ln.cs2_from_moments(samples) == pytest.approx(1.0, rel=3e-2)

    def test_moments_match_sampling(self, rng):
        mu, sigma = 0.5, 0.35
        mv = ln.lognormal_moments(mu, sigma)
        draws = np.exp(rng.normal(mu, sigma, size=200_000))
        assert mv.mean == pytest.approx(float(draws.mean()), rel=2e-2)
        assert mv.std == pytest.approx(float(draws.std()), rel=5e-2)

    def test_quantile_cdf_round_trip(self):
        mu, sigma = 0.2, 0.5
        for q in (0.1, 0.5, 0.9, 0.99):
            x = ln.lognormal_quantile(q, mu, sigma)
            assert ln.lognormal_cdf(x, mu, sigma) == pytest.approx(q)

    def test_degenerate_sigma_is_point_mass(self):
        x = ln.lognormal_quantile(0.5, 1.0, 0.0)
        assert x == pytest.approx(math.e)
        assert ln.lognormal_cdf(math.e + 1e-9, 1.0, 0.0) == 1.0
        assert ln.lognormal_cdf(math.e - 1e-9, 1.0, 0.0) == 0.0


class TestFitLognormal:
    def test_exact_fit_from_p50_p99(self):
        mu, sigma = 0.8, 0.3
        levels = np.array([0.5, 0.9, 0.95, 0.99])
        values = np.exp(mu + sigma * np.array([0.0, 1.2815515655446004,
                                               1.6448536269514722, ln.Z99]))
        fit_mu, fit_sigma = ln.fit_lognormal(levels, values)
        assert fit_mu == pytest.approx(mu)
        assert fit_sigma == pytest.approx(sigma)

    def test_least_squares_fit_without_median(self):
        mu, sigma = 0.1, 0.6
        levels = np.array([0.25, 0.75, 0.9])
        from scipy.special import ndtri

        values = np.exp(mu + sigma * ndtri(levels))
        fit_mu, fit_sigma = ln.fit_lognormal(levels, values)
        assert fit_mu == pytest.approx(mu)
        assert fit_sigma == pytest.approx(sigma)

    def test_sigma_never_negative(self):
        # Decreasing-in-z values would imply sigma < 0; clamp to 0.
        levels = np.array([0.5, 0.99])
        values = np.array([2.0, 2.0])
        _, sigma = ln.fit_lognormal(levels, values)
        assert sigma == 0.0

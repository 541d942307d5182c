"""Tests for quantile sketches and the unified probe input API.

The contract under test: a :class:`QuantileSketch` merges like a
mixture, recovers sane moments under both assumptions, and a
:class:`SketchProbe` plugs into the predictors through the same
``probe`` argument a raw campaign uses — with the train-full /
predict-sketch evaluation degrading accuracy only mildly.  Wire
round-trips are tested with the serving protocol that encodes probes
(``tests/serving/test_probe_protocol.py``).
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EvalConfig
from repro.core.evaluation import evaluate_few_runs, summarize_ks
from repro.core.features import FeatureConfig, profile_features
from repro.core.predictors import CrossSystemPredictor, FewRunsPredictor
from repro.core.quantile_representation import QuantileRepresentation
from repro.core.representations import HistogramRepresentation
from repro.core.sketch import (
    ASSUMPTIONS,
    DEFAULT_SKETCH_LEVELS,
    QuantileSketch,
    SampleProbe,
    SketchProbe,
    SketchProbeSpec,
    as_probe,
    encode_from_sketch,
)
from repro.errors import ValidationError
from repro.stats.moments import nearest_feasible


@pytest.fixture(scope="module")
def lognormal_samples():
    rng = np.random.default_rng(4242)
    return np.exp(rng.normal(0.4, 0.3, size=5000))


@pytest.fixture(scope="module")
def sketch(lognormal_samples):
    return QuantileSketch.from_samples(lognormal_samples)


class TestQuantileSketchValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.5, 0.9), values=(1.0,), n_runs=10)

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.9, 0.5), values=(1.0, 2.0), n_runs=10)

    def test_rejects_levels_outside_open_interval(self):
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.0, 0.5), values=(1.0, 2.0), n_runs=10)
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.5, 1.0), values=(1.0, 2.0), n_runs=10)

    def test_rejects_decreasing_values(self):
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.5, 0.9), values=(2.0, 1.0), n_runs=10)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.5, 0.9), values=(0.0, 1.0), n_runs=10)

    def test_rejects_single_level(self):
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.5,), values=(1.0,), n_runs=10)

    def test_frozen(self, sketch):
        with pytest.raises(AttributeError):
            sketch.n_runs = 99


class TestQuantileSketchBasics:
    def test_from_samples_matches_numpy_quantiles(self, lognormal_samples):
        sk = QuantileSketch.from_samples(lognormal_samples)
        expected = np.quantile(lognormal_samples, DEFAULT_SKETCH_LEVELS)
        assert np.allclose(sk.values, expected)
        assert sk.n_runs == len(lognormal_samples)

    def test_value_at_tolerates_float_noise(self, sketch):
        assert sketch.value_at(0.9 + 1e-12) == sketch.values[1]
        # A level not in the sketch falls back to interpolation.
        mid = sketch.value_at(0.7)
        assert sketch.values[0] <= mid <= sketch.values[1]

    def test_scaled(self, sketch):
        doubled = sketch.scaled(2.0)
        assert np.allclose(doubled.values, 2.0 * sketch.values)
        assert doubled.n_runs == sketch.n_runs



class TestMerge:
    def test_merge_identical_sketches_is_identity(self, sketch):
        merged = sketch.merge(sketch)
        assert np.allclose(merged.values, sketch.values)
        assert merged.n_runs == 2 * sketch.n_runs

    def test_merge_is_bounded_by_inputs(self, sketch):
        shifted = sketch.scaled(1.5)
        merged = sketch.merge(shifted)
        lo = np.minimum(sketch.values, shifted.values)
        hi = np.maximum(sketch.values, shifted.values)
        assert np.all(merged.values >= lo - 1e-12)
        assert np.all(merged.values <= hi + 1e-12)

    def test_merge_is_weighted(self, sketch):
        # Merging with a tiny sketch should barely move the quantiles.
        tiny = QuantileSketch(
            levels=sketch.levels, values=sketch.values * 1.5, n_runs=1
        )
        merged = sketch.merge(tiny)
        drift = np.abs(merged.values - sketch.values) / sketch.values
        assert np.all(drift < 0.05)

    def test_merged_values_monotone(self, sketch):
        merged = sketch.merge(sketch.scaled(3.0))
        assert np.all(np.diff(merged.values) >= 0)


class TestMomentRecovery:
    def test_lognormal_recovery_matches_truth(self, lognormal_samples, sketch):
        mv = sketch.moments("lognormal")
        assert mv.mean == pytest.approx(float(lognormal_samples.mean()), rel=2e-2)
        assert mv.std == pytest.approx(float(lognormal_samples.std()), rel=8e-2)

    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_moments_are_finite_and_feasible(self, sketch, assumption):
        mv = sketch.moments(assumption)
        arr = mv.as_array()
        assert np.all(np.isfinite(arr))
        assert mv.std >= 0.0
        assert mv.kurt >= 1.0

    def test_log_moments_lognormal_is_normal(self, sketch):
        mv = sketch.log_moments("lognormal")
        assert mv.skew == 0.0
        assert mv.kurt == 3.0

    def test_unknown_assumption_rejected(self, sketch):
        with pytest.raises(ValidationError):
            sketch.moments("cauchy")

    def test_pseudo_samples_deterministic(self, sketch):
        a = sketch.pseudo_samples(64)
        b = sketch.pseudo_samples(64)
        assert np.array_equal(a, b)
        assert a.size == 64
        assert np.all(a > 0)


def _exact_pearson_moments(levels, values):
    """(mean, std, skew, kurt) of the piecewise-linear quantile function,
    integrated in exact rational arithmetic (the reference for the
    floating-point integrator)."""
    u = [Fraction(0)] + [Fraction(float(x)) for x in levels] + [Fraction(1)]
    v = [Fraction(float(x)) for x in (values[0], *values, values[-1])]
    raw = [Fraction(0)] * 5
    for i in range(len(u) - 1):
        du, a, b = u[i + 1] - u[i], v[i], v[i + 1]
        for k in range(1, 5):
            raw[k] += du * sum(a**j * b ** (k - j) for j in range(k + 1)) / (k + 1)
    e1 = raw[1]
    m2 = raw[2] - e1**2
    m3 = raw[3] - 3 * e1 * raw[2] + 2 * e1**3
    m4 = raw[4] - 4 * e1 * raw[3] + 6 * e1**2 * raw[2] - 3 * e1**4
    if m2 == 0:
        return float(e1), 0.0, 0.0, 3.0
    return (
        float(e1),
        math.sqrt(m2),
        float(m3) / float(m2) ** 1.5,
        float(m4 / (m2 * m2)),
    )


def _rel_err(got: float, exact: float) -> float:
    return abs(got - exact) / abs(exact) if exact else abs(got)


class TestPearsonMomentsExact:
    """``moments("pearson")`` against exact integration of the same
    quantile function: tight sketches far from zero must keep their
    spread (no cancellation in the raw-to-central conversion)."""

    @given(
        log_c=st.floats(-3.0, 4.0),
        log_r=st.floats(-8.0, 0.0),
        u=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_reference(self, log_c, log_r, u):
        c, r = 10.0**log_c, 10.0**log_r
        values = c * (1.0 + r * np.sort(u))
        got = QuantileSketch(DEFAULT_SKETCH_LEVELS, values, 10).moments("pearson")
        exact = _exact_pearson_moments(DEFAULT_SKETCH_LEVELS, values)
        assert _rel_err(got.mean, exact[0]) <= 1e-12
        assert _rel_err(got.std, exact[1]) <= 1e-12
        if nearest_feasible(*exact) == exact:
            assert _rel_err(got.skew, exact[2]) <= 1e-12
            assert _rel_err(got.kurt, exact[3]) <= 1e-12

    def test_tight_log_rate_sketch(self, intel_campaigns):
        # npb/bt, first 10 runs: metric 2's log rates sit near 21.94 with
        # a spread under 0.01 (the raw-moment form read kurtosis 54.25).
        probe = SketchProbe.from_campaign(intel_campaigns["npb/bt"].subset(range(10)))
        sk = probe.rate_sketches[2]
        log_values = np.log(sk.values)
        got = sk.log_moments("pearson")
        exact = _exact_pearson_moments(sk.levels, log_values)
        assert exact[3] == pytest.approx(2.0445, abs=1e-4)
        for g, e in zip(got.as_array(), exact):
            assert _rel_err(float(g), e) <= 1e-12

    def test_nearly_flat_sketch_keeps_its_tail(self):
        # Flat at 1.0 up to p99 = 1.0000001: the raw-moment form read
        # std 0; moments and log_moments must agree on the shape.
        sk = QuantileSketch(DEFAULT_SKETCH_LEVELS, (1.0, 1.0, 1.0, 1.0000001), 10)
        mv = sk.moments("pearson")
        exact = _exact_pearson_moments(sk.levels, sk.values)
        assert mv.std == pytest.approx(1.4978e-8, rel=1e-4)
        for g, e in zip(mv.as_array(), exact):
            assert _rel_err(float(g), e) <= 1e-12
        log_mv = sk.log_moments("pearson")
        assert mv.skew == pytest.approx(log_mv.skew, rel=1e-6)
        assert mv.kurt == pytest.approx(log_mv.kurt, rel=1e-6)
        assert (mv.skew, mv.kurt) == pytest.approx((5.3434, 31.2438), abs=1e-4)


class TestEncodeFromSketch:
    def test_histogram_encoding_integrates_to_one(self, lognormal_samples):
        rep = HistogramRepresentation()
        rel = lognormal_samples / lognormal_samples.mean()
        sk = QuantileSketch.from_samples(rel)
        probs = encode_from_sketch(rep, sk, "lognormal")
        assert probs.size == rep.grid.n_bins
        assert float(probs.sum() * rep.grid.width) == pytest.approx(1.0)

    def test_quantile_encoding_reads_sketch_quantiles(self, sketch):
        rep = QuantileRepresentation()
        out = encode_from_sketch(rep, sketch, "lognormal")
        assert np.array_equal(out, sketch.quantile(rep.levels))


class TestProbes:
    def test_as_probe_wraps_campaign(self, intel_campaigns):
        camp = next(iter(intel_campaigns.values()))
        p = as_probe(camp)
        assert isinstance(p, SampleProbe)
        assert p.kind == "samples"
        assert as_probe(p) is p

    def test_as_probe_rejects_junk(self):
        with pytest.raises(ValidationError):
            as_probe(42)

    def test_sample_probe_features_bit_identical(self, intel_campaigns):
        camp = next(iter(intel_campaigns.values()))
        cfg = FeatureConfig()
        assert np.array_equal(
            SampleProbe(camp).features(cfg), profile_features(camp, cfg)
        )

    def test_sketch_probe_features_layout_matches_sample_path(
        self, intel_campaigns
    ):
        camp = next(iter(intel_campaigns.values()))
        cfg = FeatureConfig()
        full = profile_features(camp, cfg)
        sk = SketchProbe.from_campaign(camp).features(cfg)
        assert sk.shape == full.shape
        assert np.all(np.isfinite(sk))
        # Same metric-major layout: features correlate strongly.
        r = np.corrcoef(full, sk)[0, 1]
        assert r > 0.99

    def test_spec_key_distinguishes_assumptions(self):
        a = SketchProbeSpec()
        b = SketchProbeSpec(assumption="pearson")
        assert a.key != b.key
        assert a.key == SketchProbeSpec().key


class TestPredictorProbeAPI:
    def test_few_runs_accepts_sketch_probe(self, intel_campaigns):
        pred = FewRunsPredictor(n_probe_runs=6, n_replicas=2).fit(intel_campaigns)
        camp = next(iter(intel_campaigns.values()))
        probe = SketchProbe.from_campaign(camp)
        vec = pred.predict_vector(probe)
        full = pred.predict_vector(camp)
        assert vec.shape == full.shape
        assert np.all(np.isfinite(vec))

    def test_cross_system_accepts_sketch_probe(
        self, intel_campaigns, amd_campaigns
    ):
        pred = CrossSystemPredictor(n_replicas=2).fit(
            intel_campaigns, amd_campaigns
        )
        camp = next(iter(intel_campaigns.values()))
        vec = pred.predict_vector(SketchProbe.from_campaign(camp))
        assert np.all(np.isfinite(vec))
        assert vec.shape == pred.predict_vector(camp).shape

    def test_campaign_and_sample_probe_predict_bitwise_equal(
        self, intel_campaigns, amd_campaigns
    ):
        few = FewRunsPredictor(n_probe_runs=6, n_replicas=2).fit(intel_campaigns)
        cross = CrossSystemPredictor(
            representation=HistogramRepresentation(), n_replicas=2
        ).fit(intel_campaigns, amd_campaigns)
        for camp in intel_campaigns.values():
            probe = camp.subset(range(6))
            for pred in (few, cross):
                assert (
                    pred.predict_vector(probe).tobytes()
                    == pred.predict_vector(SampleProbe(probe)).tobytes()
                )


class TestTrainFullPredictSketch:
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_uc1_sketch_eval_degrades_gracefully(
        self, intel_campaigns, assumption
    ):
        full = summarize_ks(
            evaluate_few_runs(
                intel_campaigns,
                EvalConfig(representation="pearsonrnd", model="knn"),
            )
        ).mean
        sk = summarize_ks(
            evaluate_few_runs(
                intel_campaigns,
                EvalConfig(
                    representation="pearsonrnd",
                    model="knn",
                    probe_kind="sketch",
                    assumption=assumption,
                ),
            )
        ).mean
        assert np.isfinite(sk)
        # Percentile-only ingestion costs accuracy, but the predictions
        # must stay in the same quality regime as the full-sample path.
        assert sk < full + 0.15

    def test_sample_path_unchanged_by_probe_spec_plumbing(self, intel_campaigns):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no deprecation on the v2 path
            a = evaluate_few_runs(
                intel_campaigns, EvalConfig(representation="histogram")
            )
            b = evaluate_few_runs(
                intel_campaigns,
                EvalConfig(representation="histogram", probe_kind="samples"),
            )
        assert np.array_equal(
            np.asarray(a["ks"], dtype=float), np.asarray(b["ks"], dtype=float)
        )

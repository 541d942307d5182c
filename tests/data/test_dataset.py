"""Tests for RunCampaign."""

import numpy as np
import pytest

from repro.data.dataset import RunCampaign
from repro.errors import ValidationError


def make_campaign(n=20, m=3):
    rng = np.random.default_rng(0)
    return RunCampaign(
        benchmark="suite/bench",
        system="intel",
        runtimes=rng.uniform(1.0, 2.0, size=n),
        counters=rng.uniform(10.0, 20.0, size=(n, m)),
        metric_names=tuple(f"m{i}" for i in range(m)),
    )


class TestRunCampaign:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            RunCampaign("b", "s", np.ones(5), np.ones((4, 2)), ("a", "b"))

    def test_metric_count_validation(self):
        with pytest.raises(ValidationError):
            RunCampaign("b", "s", np.ones(4), np.ones((4, 2)), ("a",))

    def test_positive_runtimes_required(self):
        with pytest.raises(ValidationError):
            RunCampaign("b", "s", np.array([1.0, 0.0]), np.ones((2, 1)), ("a",))

    def test_relative_times(self):
        c = make_campaign()
        assert c.relative_times().mean() == pytest.approx(1.0)

    def test_rates_are_per_second(self):
        c = make_campaign()
        assert np.allclose(c.rates() * c.runtimes[:, None], c.counters)

    def test_subset(self):
        c = make_campaign(10)
        s = c.subset([0, 2, 4])
        assert s.n_runs == 3
        assert np.array_equal(s.runtimes, c.runtimes[[0, 2, 4]])

    def test_sample_runs_without_replacement(self, rng):
        c = make_campaign(10)
        s = c.sample_runs(10, rng)
        assert sorted(s.runtimes.tolist()) == sorted(c.runtimes.tolist())

    def test_sample_too_many(self, rng):
        with pytest.raises(ValidationError):
            make_campaign(5).sample_runs(6, rng)

"""Tests for the simulated perf runner."""

import numpy as np
import pytest

from repro.simbench.runner import measure_all, run_campaign


class TestRunCampaign:
    def test_shapes(self):
        c = run_campaign("npb/cg", "intel", 50)
        assert c.n_runs == 50
        assert c.counters.shape == (50, 68)
        assert c.benchmark == "npb/cg"
        assert c.system == "intel"

    def test_amd_metric_count(self):
        c = run_campaign("npb/cg", "amd", 10)
        assert c.counters.shape == (10, 75)

    def test_deterministic(self):
        a = run_campaign("npb/cg", "intel", 20)
        b = run_campaign("npb/cg", "intel", 20)
        assert np.array_equal(a.runtimes, b.runtimes)
        assert np.array_equal(a.counters, b.counters)

    def test_root_seed_changes_data(self):
        a = run_campaign("npb/cg", "intel", 20, root_seed=1)
        b = run_campaign("npb/cg", "intel", 20, root_seed=2)
        assert not np.array_equal(a.runtimes, b.runtimes)

    def test_relative_times_mean_one(self):
        c = run_campaign("mllib/kmeans", "intel", 100)
        assert c.relative_times().mean() == pytest.approx(1.0)


class TestMeasureAll:
    def test_subset_and_order(self):
        out = measure_all("intel", benchmarks=("npb/cg", "npb/bt"), n_runs=10, n_workers=1)
        assert list(out) == ["npb/cg", "npb/bt"]

    def test_agrees_with_individual_runs(self):
        out = measure_all("intel", benchmarks=("npb/cg",), n_runs=25, n_workers=1)
        solo = run_campaign("npb/cg", "intel", 25)
        assert np.array_equal(out["npb/cg"].runtimes, solo.runtimes)

"""Integration tests for the experiment runners (small configs)."""

import numpy as np
import pytest

from repro.experiments.config import FAST_CONFIG, PAPER_CONFIG, ExperimentConfig
from repro.experiments.figures import figure1, figure3, table1, table2_3
from repro.experiments.reporting import (
    best_by_model,
    best_by_representation,
    direction_report,
    grid_mean_ks,
    grid_report,
    sweep_report,
)
from repro.experiments.usecase1 import overlay_examples, representation_model_grid, sample_count_sweep
from repro.experiments.usecase2 import direction_study
from repro.experiments import usecase2


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        benchmarks=(
            "npb/bt",
            "npb/is",
            "spec_omp/376",
            "spec_accel/303",
            "rodinia/heartwall",
            "mllib/correlation",
            "parsec/streamcluster",
            "parboil/sgemm",
        ),
        n_runs=200,
        n_replicas_uc1=3,
        n_replicas_uc2=2,
        representations=("pearsonrnd", "histogram"),
        models=("knn",),
        sample_counts=(2, 10),
    )


@pytest.fixture(scope="module")
def tiny_intel(tiny_config):
    from repro.experiments.usecase1 import measure_campaigns

    return measure_campaigns(tiny_config, "intel")


@pytest.fixture(scope="module")
def tiny_amd(tiny_config):
    from repro.experiments.usecase1 import measure_campaigns

    return measure_campaigns(tiny_config, "amd")


class TestConfig:
    def test_paper_config_scale(self):
        assert len(PAPER_CONFIG.benchmarks) == 60
        assert PAPER_CONFIG.n_runs == 1000
        assert PAPER_CONFIG.n_probe_runs == 10

    def test_scaled_down(self):
        assert len(FAST_CONFIG.benchmarks) == 16
        assert FAST_CONFIG.n_runs == 300


class TestTables:
    def test_table1_has_60_rows(self):
        assert len(table1()) == 60

    def test_table2_3_dimensions(self):
        t = table2_3()
        systems = t["system"]
        assert int(np.sum(systems == "intel")) == 68
        assert int(np.sum(systems == "amd")) == 75


class TestFigure3(object):
    def test_summary_stats(self, tiny_intel):
        t = figure3(tiny_intel)
        assert len(t) == len(tiny_intel)
        assert np.all(t["std"] >= 0.0)
        # heartwall narrow, 303 wide
        by_name = {r["benchmark"]: r for r in t.rows()}
        assert by_name["rodinia/heartwall"]["std"] < by_name["spec_accel/303"]["std"]


class TestUseCase1Runners:
    def test_grid_long_form(self, tiny_intel, tiny_config):
        grid = representation_model_grid(tiny_intel, tiny_config)
        assert len(grid) == 2 * 1 * len(tiny_intel)
        means = grid_mean_ks(grid)
        assert len(means) == 2
        assert np.all(np.asarray(means["mean_ks"], dtype=float) < 0.6)

    def test_reports_render(self, tiny_intel, tiny_config):
        grid = representation_model_grid(tiny_intel, tiny_config)
        text = grid_report(grid, title="Fig4 (tiny)")
        assert "Fig4 (tiny)" in text
        assert "pearsonrnd+knn" in text
        assert best_by_representation(grid).keys() == {"pearsonrnd", "histogram"}
        assert best_by_model(grid).keys() == {"knn"}

    def test_sample_sweep_improves_with_samples(self, tiny_intel, tiny_config):
        sweep = sample_count_sweep(tiny_intel, tiny_config)
        counts = np.asarray(sweep["n_samples"])
        ks = np.asarray(sweep["ks"], dtype=float)
        mean2 = ks[counts == 2].mean()
        mean10 = ks[counts == 10].mean()
        assert mean10 <= mean2 + 0.02
        assert "n=2" in sweep_report(sweep, title="Fig6 (tiny)")

    def test_sample_sweep_matches_per_size_evaluation(self, tiny_intel, tiny_config):
        # The batched-scoring sweep must be bit-identical to the naive
        # one-evaluate_few_runs-per-probe-size loop it replaced.
        from repro import registry
        from repro.core.config import EvalConfig
        from repro.core.evaluation import evaluate_few_runs

        sweep = sample_count_sweep(tiny_intel, tiny_config)
        rep = registry.representation("pearsonrnd")
        for n_samples in tiny_config.sample_counts:
            ref = evaluate_few_runs(
                tiny_intel,
                config=EvalConfig(
                    representation=rep,
                    model="knn",
                    n_probe_runs=n_samples,
                    n_replicas=tiny_config.n_replicas_uc1,
                    seed=tiny_config.eval_seed,
                    n_workers=tiny_config.n_workers,
                ),
            )
            mask = np.asarray(sweep["n_samples"]) == n_samples
            assert list(np.asarray(sweep["benchmark"])[mask]) == list(
                ref["benchmark"]
            )
            assert np.array_equal(
                np.asarray(sweep["ks"], dtype=float)[mask], np.asarray(ref["ks"])
            )

    def test_overlays(self, tiny_intel, tiny_config):
        examples = overlay_examples(
            tiny_intel, ("spec_omp/376", "rodinia/heartwall"), tiny_config
        )
        assert len(examples) == 2
        for ex in examples:
            assert 0.0 <= ex.ks <= 1.0
            assert ex.measured.size == tiny_config.n_runs
            assert ex.predicted.size == tiny_config.n_runs

    def test_overlays_skip_unknown(self, tiny_intel, tiny_config):
        assert overlay_examples(tiny_intel, ("nope/nope",), tiny_config) == []


class TestFigure1:
    def test_panels(self, tiny_intel, tiny_config):
        data = figure1(tiny_intel, tiny_config)
        assert data.benchmark == "spec_omp/376"
        assert data.measured.size == tiny_config.n_runs
        assert sorted(data.small_samples) == [2, 3, 5, 10]
        assert data.small_samples[5].size == 5
        assert 0.0 <= data.prediction_ks <= 1.0


class TestUseCase2Runners:
    def test_grid(self, tiny_amd, tiny_intel, tiny_config):
        grid = usecase2.representation_model_grid(tiny_amd, tiny_intel, tiny_config)
        assert len(grid) == 2 * 1 * len(tiny_amd)
        assert np.all(np.asarray(grid["ks"], dtype=float) <= 1.0)

    def test_direction_study(self, tiny_amd, tiny_intel, tiny_config):
        table = direction_study(tiny_amd, tiny_intel, tiny_config)
        dirs = set(table["direction"])
        assert dirs == {"amd_to_intel", "intel_to_amd"}
        text = direction_report(table, title="Fig8 (tiny)")
        assert "amd_to_intel" in text

    def test_overlays(self, tiny_amd, tiny_intel, tiny_config):
        examples = usecase2.overlay_examples(
            tiny_amd, tiny_intel, ("parsec/streamcluster",), tiny_config
        )
        assert len(examples) == 1
        assert examples[0].predicted.size == tiny_config.n_runs

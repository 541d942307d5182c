"""Tests for the ``python -m repro.experiments`` CLI."""

import pytest

from repro import obs
from repro.experiments.__main__ import EXPERIMENTS, _config_for_scale, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig4", "fig9", "tables"):
            assert name in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["figX"]) == 2

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "tables",
            "fig1",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
        }

    def test_scale_configs(self):
        paper = _config_for_scale("paper", 1)
        small = _config_for_scale("small", 2)
        assert len(paper.benchmarks) == 60
        assert len(small.benchmarks) == 16
        assert small.n_workers == 2
        with pytest.raises(SystemExit):
            _config_for_scale("galactic", 1)

    def test_tables_runs_end_to_end(self, capsys, tmp_path):
        assert main(["tables", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "npb" in out
        assert (tmp_path / "table1_roster.csv").exists()
        assert not obs.enabled()

    def test_failed_experiment_leaves_obs_disabled(self, monkeypatch, tmp_path):
        def explode(cfg, out):
            assert obs.enabled()  # every experiment runs with obs recording
            raise RuntimeError("boom")

        monkeypatch.setitem(EXPERIMENTS, "tables", explode)
        with pytest.raises(RuntimeError, match="boom"):
            main(["tables", "--results-dir", str(tmp_path)])
        assert not obs.enabled()

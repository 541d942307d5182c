"""Tests for the top-level public API surface."""

import importlib

import pytest

import repro


class TestTopLevelAPI:
    def test_version(self):
        assert repro.__version__ == "5.0.0"

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points(self):
        assert callable(repro.measure_all)
        assert callable(repro.evaluate_few_runs)
        assert callable(repro.evaluate_cross_system)
        assert len(repro.benchmark_names()) == 60

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.stats",
            "repro.ml",
            "repro.simbench",
            "repro.data",
            "repro.parallel",
            "repro.experiments",
            "repro.viz",
        ],
    )
    def test_subpackage_alls_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_no_forbidden_dependencies(self):
        """The reproduction must not quietly import the libraries it
        claims to reimplement."""
        import sys

        for mod in ("sklearn", "xgboost", "pandas", "matplotlib"):
            assert mod not in sys.modules, f"{mod} was imported by repro"

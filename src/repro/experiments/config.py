"""Experiment configuration.

One config object drives every figure/table runner so the full
reproduction, the fast CI variant, and ad-hoc studies differ only in a few
numbers.  The paper-scale configuration matches Section IV: 60 benchmarks,
1,000 runs, 10-sample probes, both systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from ..simbench.suites import benchmark_names

__all__ = ["ExperimentConfig", "PAPER_CONFIG", "FAST_CONFIG", "config_for_scale", "results_dir"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment runners.

    Attributes
    ----------
    benchmarks:
        Benchmarks included in the study (default: the full Table-I
        roster).
    n_runs:
        Runs per measured campaign (paper: 1,000).
    n_probe_runs:
        Probe size for use case 1 (paper default: 10).
    n_replicas_uc1 / n_replicas_uc2:
        Training-row replicas per benchmark.
    representations / models:
        Registry names swept by the representation x model grids.
    sample_counts:
        Probe sizes swept in Fig. 6.
    root_seed:
        Seed for the simulated measurement campaigns.
    eval_seed:
        Seed for probe sampling / KS draws inside evaluations.
    n_workers:
        Process count (1 = serial) of the measurement sweeps and of every
        evaluation runner's LOGO fold dispatch; results are bit-identical
        at any value.
    tree_method:
        Split-search kernel for the tree-based grid models: ``"exact"``
        (reference path, default) or ``"hist"`` (pre-binned fast path).
    """

    benchmarks: tuple[str, ...] = field(default_factory=benchmark_names)
    n_runs: int = 1000
    n_probe_runs: int = 10
    n_replicas_uc1: int = 6
    n_replicas_uc2: int = 4
    representations: tuple[str, ...] = ("histogram", "pymaxent", "pearsonrnd")
    models: tuple[str, ...] = ("knn", "rf", "xgboost")
    sample_counts: tuple[int, ...] = (1, 2, 3, 5, 10, 20, 50)
    root_seed: int = 777
    eval_seed: int = 616161
    n_workers: int = 1
    tree_method: str = "exact"

    def resolve_grid_model(self, name: str):
        """(model instance, fold-vector memo key) for one grid cell.

        Delegates to :class:`~repro.core.config.EvalConfig`, which applies
        ``tree_method`` to registry models and folds it into the memo key
        (``knn``, ``rf+hist``, ``xgboost+hist``), so hist and exact fits
        of the same model never share a cache entry.
        """
        from ..core.config import EvalConfig

        cfg = EvalConfig(model=name, tree_method=self.tree_method)
        return cfg.resolve_model(), cfg.model_key()

    def scaled_down(self, *, n_benchmarks: int = 16, n_runs: int = 300) -> "ExperimentConfig":
        """A cheaper variant for tests/CI: fewer benchmarks and runs."""
        return replace(
            self,
            benchmarks=self.benchmarks[:n_benchmarks],
            n_runs=n_runs,
            n_replicas_uc1=min(self.n_replicas_uc1, 4),
            n_replicas_uc2=min(self.n_replicas_uc2, 3),
        )


#: Full paper-scale configuration.
PAPER_CONFIG = ExperimentConfig()

#: Small deterministic configuration for unit/integration tests.
FAST_CONFIG = PAPER_CONFIG.scaled_down()


def config_for_scale(scale: str, n_workers: int = 1) -> ExperimentConfig:
    """The ``paper``, ``medium`` or ``small`` configuration on *n_workers*.

    ``medium`` is 32 benchmarks x 500 runs, ``small`` 16 x 300; both
    figure drivers resolve their scale here.
    """
    if scale == "paper":
        cfg = PAPER_CONFIG
    elif scale == "medium":
        cfg = PAPER_CONFIG.scaled_down(n_benchmarks=32, n_runs=500)
    elif scale == "small":
        cfg = PAPER_CONFIG.scaled_down(n_benchmarks=16, n_runs=300)
    else:
        raise ValueError(f"unknown scale {scale!r}")
    return replace(cfg, n_workers=n_workers)


def results_dir(scale: str, root=".") -> Path:
    """Default export directory of a run at *scale* under *root*.

    ``results/`` (the committed paper-scale outputs) at paper scale,
    ``results/<scale>/`` below it.
    """
    base = Path(root) / "results"
    return base if scale == "paper" else base / scale

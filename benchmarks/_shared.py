"""Shared infrastructure for the figure-reproduction benchmarks.

Every ``test_fig*``/``test_table*`` file regenerates one table or figure
of the paper by calling :func:`run_experiment`, which runs the same
runner as ``python -m repro.experiments`` (see
:mod:`repro.experiments.runners`), and asserts the paper's shape on what
the runner returns.  Campaign measurement goes through the persistent
:class:`~repro.data.campaign_cache.CampaignCache`: the first session
simulates and stores each campaign set; every later session (and every
later call within a session, via the in-memory LRU tier) loads the
bit-identical set from disk instead of re-simulating 60x1,000-run
campaigns.

The cache directory defaults to ``.repro_cache/`` at the repository root
and can be redirected with ``REPRO_CACHE_DIR``.

Scale is controlled by ``REPRO_BENCH_SCALE``
(:func:`repro.experiments.config.config_for_scale`):

* ``paper`` (default) — the full Section-IV setup: 60 benchmarks, 1,000
  runs per campaign;
* ``medium`` — 32 benchmarks, 500 runs (roughly 4x faster grids);
* ``small`` — 16 benchmarks, 300 runs (CI smoke scale).

Results (CSV/JSON series) land in ``results/`` at paper scale and in
``results/<scale>/`` below it.
"""

from __future__ import annotations

import os
from functools import lru_cache

from repro.data.campaign_cache import CampaignCache
from repro.experiments.config import ExperimentConfig, config_for_scale, results_dir
from repro.experiments.runners import EXPERIMENTS
from repro.simbench.runner import cached_measure_all

__all__ = [
    "bench_config",
    "campaign_cache",
    "intel_campaigns",
    "amd_campaigns",
    "run_experiment",
    "RESULTS_DIR",
]

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SCALE = os.environ.get("REPRO_BENCH_SCALE", "paper").lower()
RESULTS_DIR = results_dir(_SCALE, _REPO_ROOT)

#: Default on-disk cache location for benchmark sessions.
CACHE_DIR = os.environ.get(
    "REPRO_CACHE_DIR", os.path.join(_REPO_ROOT, ".repro_cache")
)


@lru_cache(maxsize=1)
def bench_config() -> ExperimentConfig:
    """The experiment configuration selected by REPRO_BENCH_SCALE."""
    return config_for_scale(_SCALE)


@lru_cache(maxsize=1)
def campaign_cache() -> CampaignCache:
    """The session's persistent campaign cache."""
    return CampaignCache(CACHE_DIR)


def _campaigns(system: str):
    cfg = bench_config()
    return cached_measure_all(
        system,
        benchmarks=cfg.benchmarks,
        n_runs=cfg.n_runs,
        root_seed=cfg.root_seed,
        n_workers=cfg.n_workers,
        cache=campaign_cache(),
    )


def intel_campaigns():
    """Cached Intel-system campaigns at the configured scale."""
    return _campaigns("intel")


def amd_campaigns():
    """Cached AMD-system campaigns at the configured scale."""
    return _campaigns("amd")


def run_experiment(name: str):
    """Run experiment *name* on the cached campaigns into :data:`RESULTS_DIR`.

    Returns what the runner returns; the runner prints and exports.
    """
    runner, systems = EXPERIMENTS[name]
    return runner(bench_config(), RESULTS_DIR, *map(_campaigns, systems))

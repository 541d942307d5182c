"""The simulated ``perf stat`` runner.

Ties the substrate together: given a benchmark and a system, "execute" it
``n_runs`` times and return a :class:`~repro.data.dataset.RunCampaign`
(runtimes + counter totals), exactly what profiling a real binary under
``perf stat -r N`` would yield.  Campaigns are deterministic in
``(benchmark, system, root seed, n_runs)`` and independent of execution
order, so sweeps can fan out across processes.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .._validation import check_positive_int
from ..data.campaign_cache import CampaignCache
from ..data.dataset import RunCampaign
from ..parallel.pool import parallel_map
from ..parallel.seeding import seed_for
from .counters import CounterModel
from .latent import AppCharacteristics
from .suites import benchmark_names, get_benchmark
from .systems import SystemModel, get_system
from .variability import RuntimeLaw

__all__ = [
    "run_campaign",
    "measure_all",
    "cached_measure_all",
]

_DEFAULT_ROOT_SEED = 777


def run_campaign(
    benchmark: str | AppCharacteristics,
    system: str | SystemModel,
    n_runs: int = 1000,
    *,
    root_seed: int = _DEFAULT_ROOT_SEED,
) -> RunCampaign:
    """Simulate *n_runs* profiled executions of one benchmark on one system.

    Deterministic: the RNG stream is keyed by (root_seed, benchmark,
    system, n_runs) so repeated calls agree bit-for-bit.
    """
    app = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
    sysm = get_system(system) if isinstance(system, str) else system
    n = check_positive_int(n_runs, name="n_runs")

    law = RuntimeLaw.for_pair(app, sysm)
    model = CounterModel.for_system(sysm)
    rng = np.random.default_rng(
        seed_for(root_seed, "campaign", app.name, sysm.name, str(n))
    )
    draws = law.sample(n, rng)
    counters = model.sample_counters(app, draws, rng)
    return RunCampaign(
        benchmark=app.name,
        system=sysm.name,
        runtimes=draws.runtimes,
        counters=counters,
        metric_names=model.metric_names,
    )


def _run_one(task: tuple[str, str, int, int]) -> RunCampaign:
    bench, system, n_runs, root_seed = task
    return run_campaign(bench, system, n_runs, root_seed=root_seed)


def measure_all(
    system: str | SystemModel,
    *,
    benchmarks: tuple[str, ...] | None = None,
    n_runs: int = 1000,
    root_seed: int = _DEFAULT_ROOT_SEED,
    n_workers: int | None = None,
) -> dict[str, RunCampaign]:
    """Measure every benchmark (or a subset) on *system*, in parallel.

    Returns a name -> campaign mapping; deterministic regardless of the
    worker count.
    """
    sys_name = system if isinstance(system, str) else system.name
    names = benchmarks if benchmarks is not None else benchmark_names()
    tasks = [(b, sys_name, n_runs, root_seed) for b in names]
    obs.counter("simbench.campaigns.measured", len(tasks))
    obs.counter("simbench.runs.measured", len(tasks) * int(n_runs))
    with obs.span(
        "measure_all", system=sys_name, n_benchmarks=len(tasks), n_runs=int(n_runs)
    ):
        results = parallel_map(_run_one, tasks, n_workers=n_workers)
    return {c.benchmark: c for c in results}


#: Process-wide cache behind :func:`cached_measure_all` (memory LRU plus
#: the ``REPRO_CACHE_DIR`` disk tier when that variable is set).
_DEFAULT_CACHE: CampaignCache | None = None


def cached_measure_all(
    system: str | SystemModel,
    *,
    benchmarks: tuple[str, ...] | None = None,
    n_runs: int = 1000,
    root_seed: int = _DEFAULT_ROOT_SEED,
    n_workers: int | None = None,
    cache: CampaignCache | None = None,
) -> dict[str, RunCampaign]:
    """:func:`measure_all` behind a persistent campaign cache.

    Campaign sets are content-addressed by (system, roster, n_runs,
    root_seed), so a hit — from the in-memory LRU or the on-disk tier —
    is bit-identical to a fresh simulation.  Pass an explicit
    :class:`~repro.data.campaign_cache.CampaignCache` to control
    placement; the default shared cache persists to ``REPRO_CACHE_DIR``
    when that environment variable is set and stays in memory otherwise.
    """
    global _DEFAULT_CACHE
    if cache is None:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = CampaignCache()
        cache = _DEFAULT_CACHE
    sys_name = system if isinstance(system, str) else system.name
    names = tuple(benchmarks if benchmarks is not None else benchmark_names())
    return cache.get_or_measure(
        sys_name,
        names,
        n_runs,
        root_seed,
        lambda: measure_all(
            sys_name,
            benchmarks=names,
            n_runs=n_runs,
            root_seed=root_seed,
            n_workers=n_workers,
        ),
    )

"""Simulated benchmarking substrate (the hardware/SPEC substitution).

See DESIGN.md Section 2: this package replaces the paper's 60 real
benchmarks x 2 servers x 1000 ``perf stat`` runs with a parametric
generative model whose statistical structure matches what the prediction
pipelines rely on.

* :mod:`~repro.simbench.latent` — latent application characteristics;
* :mod:`~repro.simbench.suites` — the Table-I roster (7 suites / 60
  benchmarks);
* :mod:`~repro.simbench.systems` — Intel-like and AMD-like machines;
* :mod:`~repro.simbench.variability` — per-run runtime laws (frequency /
  NUMA / allocator modes, jitter, warm-up, daemon tails);
* :mod:`~repro.simbench.counters` — Tables II/III perf-counter emission;
* :mod:`~repro.simbench.runner` — the simulated ``perf stat`` campaigns.
"""

from .counters import CounterModel, anchor_trait
from .latent import TRAIT_NAMES, AppCharacteristics
from .runner import cached_measure_all, measure_all, run_campaign
from .suites import SUITES, benchmark_names, benchmark_roster, get_benchmark, suite_of
from .systems import AMD_SYSTEM, INTEL_SYSTEM, SYSTEMS, SystemModel, get_system
from .variability import RunDraws, RuntimeLaw

__all__ = [
    "CounterModel",
    "anchor_trait",
    "TRAIT_NAMES",
    "AppCharacteristics",
    "measure_all",
    "cached_measure_all",
    "run_campaign",
    "SUITES",
    "benchmark_names",
    "benchmark_roster",
    "get_benchmark",
    "suite_of",
    "AMD_SYSTEM",
    "INTEL_SYSTEM",
    "SYSTEMS",
    "SystemModel",
    "get_system",
    "RunDraws",
    "RuntimeLaw",
]

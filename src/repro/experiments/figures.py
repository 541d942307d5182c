"""Standalone figure/table data generators — Fig. 1, Fig. 3, Tables I-III.

These experiments need no trained model (Fig. 1's prediction panel reuses
the use-case-1 machinery):

* :func:`figure1` — the motivation figure: SPEC OMP 376 measured from
  1,000 runs vs. naive 2/3/5/10-sample estimates vs. a 10-sample
  prediction;
* :func:`figure3` — the variability zoo: relative-time distribution of all
  benchmarks on the Intel system;
* :func:`table1` / :func:`table2_3` — the benchmark roster and metric
  catalogs as tidy tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_random_state
from ..data.catalogs import AMD_METRICS, INTEL_METRICS
from ..data.dataset import RunCampaign
from ..data.table import ColumnTable
from ..errors import ValidationError
from ..parallel.seeding import seed_for
from ..simbench.suites import SUITES, suite_of
from ..stats.moments import moment_vector
from .config import ExperimentConfig, PAPER_CONFIG
from .usecase1 import overlay_examples

__all__ = ["Figure1Data", "figure1", "figure3", "table1", "table2_3"]

FIG1_BENCHMARK = "spec_omp/376"
FIG1_SMALL_SAMPLES = (2, 3, 5, 10)


@dataclass(frozen=True)
class Figure1Data:
    """All six panels of Fig. 1.

    ``measured`` is panel (a); ``small_samples[k]`` are panels (b-e);
    ``predicted`` is panel (f).
    """

    benchmark: str
    measured: np.ndarray
    small_samples: dict[int, np.ndarray]
    predicted: np.ndarray
    prediction_ks: float


def figure1(
    campaigns: dict[str, RunCampaign],
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    benchmark: str = FIG1_BENCHMARK,
) -> Figure1Data:
    """Reproduce Fig. 1 for *benchmark* (default SPEC OMP 376)."""
    if benchmark not in campaigns:
        raise ValidationError(
            f"Fig. 1 plots {benchmark!r}, not among the {len(campaigns)} measured benchmarks"
        )
    campaign = campaigns[benchmark]
    measured = campaign.relative_times()
    rng = check_random_state(seed_for(config.eval_seed, "fig1", benchmark))
    small = {
        k: np.sort(rng.choice(measured, size=k, replace=False))
        for k in FIG1_SMALL_SAMPLES
    }
    [example] = overlay_examples(
        campaigns, (benchmark,), config, representation="pearsonrnd", model="knn"
    )
    return Figure1Data(
        benchmark=benchmark,
        measured=measured,
        small_samples=small,
        predicted=example.predicted,
        prediction_ks=example.ks,
    )


def figure3(campaigns: dict[str, RunCampaign]) -> ColumnTable:
    """Fig. 3 summary: shape statistics of every benchmark's distribution.

    The paper shows one KDE per benchmark; the tabular form records the
    moments plus the 1%-99% relative-time span so wide/narrow/multimodal
    structure is quantified (the ``fig3`` runner exports the densities
    themselves as series).
    """
    rows = []
    for name in sorted(campaigns):
        rel = campaigns[name].relative_times()
        mv = moment_vector(rel)
        p01, p99 = np.percentile(rel, [1.0, 99.0])
        rows.append(
            {
                "benchmark": name,
                "suite": suite_of(name),
                "std": mv.std,
                "skew": mv.skew,
                "kurt": mv.kurt,
                "span_p01_p99": float(p99 - p01),
            }
        )
    return ColumnTable.from_rows(rows)


def table1() -> ColumnTable:
    """Table I: the benchmark roster."""
    rows = [
        {"suite": suite, "benchmark": bench}
        for suite, benches in SUITES.items()
        for bench in benches
    ]
    return ColumnTable.from_rows(rows)


def table2_3() -> ColumnTable:
    """Tables II and III: the profiling-metric catalogs."""
    rows = [
        {"system": "intel", "metric_id": i, "metric": m}
        for i, m in enumerate(INTEL_METRICS)
    ] + [
        {"system": "amd", "metric_id": i, "metric": m}
        for i, m in enumerate(AMD_METRICS)
    ]
    return ColumnTable.from_rows(rows)

"""Fig. 3 — relative-time distributions of all benchmarks (Intel).

The paper's "variability zoo": a KDE per benchmark demonstrating that
shapes vary wildly — narrow spikes, wide humps, multiple modes, long
tails — so single-point summaries are inadequate.
"""

import numpy as np

from _shared import run_experiment


def test_fig3_variability_zoo(benchmark):
    table = benchmark.pedantic(run_experiment, args=("fig3",), rounds=1, iterations=1)

    stds = np.asarray(table["std"], dtype=float)
    spans = np.asarray(table["span_p01_p99"], dtype=float)
    # Paper-shape checks: diversity across benchmarks — at least 5x spread
    # between narrow and wide distributions, and every relative-time
    # distribution concentrated around 1.
    assert stds.max() > 5.0 * stds.min()
    assert np.all(spans < 0.8)
    assert np.all(np.abs(np.asarray(table["skew"], dtype=float)) < 25.0)

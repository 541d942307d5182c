"""Fig. 5 — use case 1: predicted vs. actual overlays across the KS
spectrum (PearsonRnd + kNN, 10 runs, Intel).

The paper's selected benchmarks (``FIG5_BENCHMARKS``): very narrow
(359, 304, bt, heartwall), moderate (dtclassifier, ludomp), wide (303,
376, mrigridding), and a skewed long tail (streamcluster).
"""

import numpy as np

from repro.experiments.runners import FIG5_BENCHMARKS
from repro.stats.moments import moment_vector

from _shared import intel_campaigns, run_experiment


def test_fig5_uc1_overlays(benchmark):
    campaigns = intel_campaigns()
    available = tuple(b for b in FIG5_BENCHMARKS if b in campaigns)

    examples = benchmark.pedantic(run_experiment, args=("fig5",), rounds=1, iterations=1)
    assert len(examples) == len(available)

    by_name = {ex.benchmark: ex for ex in examples}

    # Paper shape: the predicted overall width tracks the measured width
    # across the narrow / moderate / wide spectrum.
    if "rodinia/heartwall" in by_name and "spec_accel/303" in by_name:
        narrow = by_name["rodinia/heartwall"].predicted.std()
        wide = by_name["spec_accel/303"].predicted.std()
        assert narrow < 0.5 * wide

    # Skewed long tail: streamcluster's predicted skew is positive.
    if "parsec/streamcluster" in by_name:
        ex = by_name["parsec/streamcluster"]
        assert moment_vector(ex.predicted).skew > 0.0

    # A spectrum exists: the best and worst KS differ substantially.
    ks_vals = np.array([ex.ks for ex in examples])
    assert ks_vals.max() - ks_vals.min() > 0.1

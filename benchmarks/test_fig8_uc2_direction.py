"""Fig. 8 — use case 2: prediction direction (AMD->Intel vs Intel->AMD).

Paper shape: predicting from the AMD system to the Intel system is
slightly easier than the reverse — but only slightly.
"""

import numpy as np

from _shared import run_experiment


def test_fig8_uc2_direction(benchmark):
    table = benchmark.pedantic(run_experiment, args=("fig8",), rounds=1, iterations=1)

    dirs = table["direction"]
    ks = np.asarray(table["ks"], dtype=float)
    mean_a2i = float(ks[dirs == "amd_to_intel"].mean())
    mean_i2a = float(ks[dirs == "intel_to_amd"].mean())

    # Paper shape: AMD->Intel no worse than Intel->AMD beyond noise, and
    # the gap stays small ("but only slightly").
    assert mean_a2i <= mean_i2a + 0.01
    assert abs(mean_a2i - mean_i2a) < 0.08

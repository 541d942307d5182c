"""Fig. 9 — use case 2: predicted vs. actual overlays (AMD -> Intel).

Paper's selected benchmarks (``FIG9_BENCHMARKS``): narrow (is,
heartwall, spmv), moderate (bfs, gbtclassifier, sgemm), wide (bodytrack,
canneal, correlation, histo).
"""

import numpy as np

from repro.experiments.runners import FIG9_BENCHMARKS

from _shared import amd_campaigns, intel_campaigns, run_experiment


def test_fig9_uc2_overlays(benchmark):
    amd = amd_campaigns()
    intel = intel_campaigns()
    available = tuple(b for b in FIG9_BENCHMARKS if b in amd and b in intel)

    examples = benchmark.pedantic(run_experiment, args=("fig9",), rounds=1, iterations=1)
    assert len(examples) == len(available)

    by_name = {ex.benchmark: ex for ex in examples}

    # Paper shape: predicted width tracks measured width across the
    # narrow / wide spectrum.
    narrow_names = [b for b in ("npb/is", "rodinia/heartwall", "parboil/spmv") if b in by_name]
    wide_names = [b for b in ("parsec/canneal", "mllib/correlation", "parboil/histo") if b in by_name]
    if narrow_names and wide_names:
        narrow_std = np.mean([by_name[b].predicted.std() for b in narrow_names])
        wide_std = np.mean([by_name[b].predicted.std() for b in wide_names])
        assert narrow_std < 0.6 * wide_std

    ks_vals = np.array([ex.ks for ex in examples])
    assert ks_vals.min() < 0.35  # the good end of the spectrum is good

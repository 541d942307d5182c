"""Fig. 1 — SPEC OMP 376: measured vs. small-sample vs. predicted.

Panel (a): the 1,000-run measured distribution (bimodal, larger mode
faster).  Panels (b-e): what 2/3/5/10 raw samples suggest — clearly
unrepresentative.  Panel (f): the distribution *predicted* from 10 runs
with PearsonRnd + kNN, which recovers location and spread information the
raw samples cannot.
"""

from _shared import run_experiment


def test_fig1_motivation(benchmark):
    data = benchmark.pedantic(run_experiment, args=("fig1",), rounds=1, iterations=1)

    # Shape checks: the 10-run prediction must describe the full
    # distribution far better than the 10 raw samples do.
    assert data.prediction_ks < 0.6
    # Predicted spread within 3x of measured spread (raw 10-sample std is
    # typically far off for bimodal 376).
    assert 0.3 < data.predicted.std() / data.measured.std() < 3.0

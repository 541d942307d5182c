"""Tables II and III — the perf-metric catalogs (68 Intel / 75 AMD)."""

import numpy as np

from _shared import run_experiment


def test_tables2_3_metrics(benchmark):
    _, table = benchmark.pedantic(run_experiment, args=("tables",), rounds=1, iterations=1)

    systems = table["system"]
    n_intel = int(np.sum(systems == "intel"))
    n_amd = int(np.sum(systems == "amd"))
    assert n_intel == 68  # Table II
    assert n_amd == 75  # Table III

"""Table I — the benchmark roster (7 suites, 60 benchmarks)."""

from _shared import run_experiment


def test_table1_roster(benchmark):
    table, _ = benchmark.pedantic(run_experiment, args=("tables",), rounds=1, iterations=1)

    suites = table["suite"]
    assert len(table) == 60
    counts = {s: int((suites == s).sum()) for s in set(suites.tolist())}
    # Paper Table I composition.
    assert counts == {
        "npb": 9,
        "parsec": 9,
        "spec_omp": 5,
        "spec_accel": 8,
        "parboil": 8,
        "rodinia": 10,
        "mllib": 11,
    }

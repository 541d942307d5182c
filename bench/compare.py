"""Compare two sets of benchmark records, metric by metric.

Usage::

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...
    python3 bench/compare.py A1.json A2.json ...     # one side: spread only

Side A is the reference (the parent commit), side B the change; each file
is a record written by ``run.py --out`` without tracing.  Run the two
sides alternately, with the same ``--seconds``.  For every (workload,
end-to-end metric) the table shows each side's median and quartiles and
one verdict, using the metric's bound from ``BENCHMARK.json``:

* ``better``     — B wins at least 9 of 10 pairs (A[i], B[i]), ties
  counting for neither, and the medians differ by more than the distance
  between A's quartiles; or, when the spread is too wide to judge, every
  B run beats every A run;
* ``unresolved`` — the spread between quartiles, as a share of the
  median, is wider than the bound on either side;
* ``worse``      — B's median is worse than A's by more than the bound;
* ``unchanged``  — none of the above.

The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

from common import load_spec


def load_side(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, one per run, in file order."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        if record.get("trace"):
            raise SystemExit(f"{path}: traced records hold no end-to-end metrics")
        for run in record["runs"]:
            for name, entry in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """One of better / worse / unchanged / unresolved (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = quartiles(b)[1]
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
        return "better"
    if max(spread(a), spread(b)) > bound:
        if min(sign * y for y in b) > max(sign * x for x in a):
            return "better"
        return "unresolved"
    if a_med and sign * (a_med - b_med) / abs(a_med) > bound:
        return "worse"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    side_a, side_b = load_side(argv[:cut]), load_side(argv[cut + 1:])
    if not side_a:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    spec = load_spec()
    fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))  # noqa: E731
    print(f"{'workload':<17} {'metric':<12} {'A q1/med/q3':>30} "
          + (f"{'B q1/med/q3':>30}  " if side_b else "")
          + f"{'bound':>6}  " + ("verdict" if side_b else "spread"))
    worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = side_a.get((workload, metric["name"]))
            if a is None:
                continue
            row = f"{workload:<17} {metric['name']:<12} {fmt(a):>30} "
            if not side_b:
                print(f"{row}{metric['bound']:>6}  {spread(a):.4f}")
                continue
            b = side_b.get((workload, metric["name"]))
            if b is None:
                continue
            result = verdict(a, b, metric["bound"], metric["better"])
            worse |= result == "worse"
            print(f"{row}{fmt(b):>30}  {metric['bound']:>6}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

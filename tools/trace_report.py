#!/usr/bin/env python3
"""Render an observability trace as per-stage/per-cell summary tables.

Consumes a JSONL trace written by ``python -m repro.experiments --trace``
or ``repro.obs.write_trace``, validates it against the documented schema
(``docs/OBSERVABILITY.md``), and prints:

* the per-stage wall-time breakdown (``stage`` spans: measure, featurize,
  fit, score);
* the per-cell table (``cell`` spans — one grid cell per
  (representation, model) pair), compared against a baseline file when
  one is given, with cells whose wall time regressed beyond the
  threshold flagged;
* the derived run summary (cache hit rate, encoding-dedup rates, worker
  utilization).

Usage::

    python tools/trace_report.py results/trace_fig4.jsonl
    python tools/trace_report.py trace.jsonl --baseline base.json
    python tools/trace_report.py trace.jsonl --baseline base.json --update-baseline
    python tools/trace_report.py trace.jsonl --baseline base.json --threshold 0.5

The baseline file maps cell keys (``"<representation>+<model>"``) to
wall seconds.  Exit code 1 means at least one cell regressed by more
than ``--threshold`` (fractional; default 0.25 = 25%); exit code 2 means
an invalid trace, a ``--baseline`` path that does not exist, or
``--update-baseline`` without ``--baseline``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs import (  # noqa: E402  (path bootstrap above)
    cell_walls,
    read_trace,
    stage_totals,
    summarize_records,
    validate_trace,
)


def _fmt_rate(value) -> str:
    return "n/a" if value is None else f"{value:.1%}"


def render_report(
    records: list[dict],
    *,
    baseline: dict[str, float] | None = None,
    threshold: float = 0.25,
) -> tuple[str, list[str]]:
    """The report text plus the list of regressed cell keys.

    Pure function of the parsed records so tests can golden-file it;
    *baseline* maps cell keys to reference wall seconds.
    """
    meta = records[0] if records and records[0].get("type") == "meta" else {}
    lines = []
    title = f"trace report — experiment={meta.get('experiment', '?')}"
    if "scale" in meta:
        title += f" scale={meta['scale']}"
    lines += [title, "=" * len(title), ""]

    stages = stage_totals(records)
    total = sum(stages.values())
    lines.append("per-stage wall time")
    lines.append(f"  {'stage':<12} {'total_s':>9} {'share':>7}")
    for stage, secs in stages.items():
        share = secs / total if total else 0.0
        lines.append(f"  {stage:<12} {secs:>9.3f} {share:>6.1%}")
    lines.append(f"  {'(all)':<12} {total:>9.3f}")
    lines.append("")

    regressed: list[str] = []
    cells = cell_walls(records)
    if cells:
        lines.append("per-cell wall time (representation+model)")
        header = f"  {'cell':<24} {'wall_s':>8}"
        if baseline is not None:
            header += f" {'base_s':>8} {'delta':>8}  flag"
        lines.append(header)
        for key in sorted(cells):
            row = f"  {key:<24} {cells[key]:>8.3f}"
            if baseline is not None:
                base = baseline.get(key)
                if base is None:
                    row += f" {'--':>8} {'--':>8}  new"
                else:
                    delta = (cells[key] - base) / base if base > 0 else 0.0
                    flag = ""
                    if delta > threshold:
                        flag = "REGRESSED"
                        regressed.append(key)
                    row += f" {base:>8.3f} {delta:>+7.1%}  {flag}"
            lines.append(row)
        lines.append("")

    summary = summarize_records(records)
    cache, engine, pool = summary["cache"], summary["engine"], summary["pool"]
    lines.append("run summary")
    lines.append(
        f"  cache: hit rate {_fmt_rate(cache['hit_rate'])} "
        f"(memory {cache['memory_hits']}, disk {cache['disk_hits']}, "
        f"misses {cache['misses']}, corruptions {cache['corruptions']})"
    )
    lines.append(
        f"  engine: {engine['folds_fitted']} folds fitted, "
        f"{engine['ks_scored']} KS scores, fold-vector dedup "
        f"{_fmt_rate(engine['fold_vector_hit_rate'])}, encoding dedup "
        f"{_fmt_rate(engine['target_hit_rate'])}"
    )
    lines.append(
        f"  pool: {pool['map_calls']} dispatches, {pool['items']} items, "
        f"utilization {_fmt_rate(pool['worker_utilization'])}"
    )
    return "\n".join(lines) + "\n", regressed


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="JSONL trace file to summarize")
    parser.add_argument(
        "--baseline",
        help="cell-wall baseline JSON to compare against (default: none)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this trace's cell walls to --baseline and exit 0",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional slowdown that flags a cell (default 0.25)",
    )
    args = parser.parse_args(argv)

    records = read_trace(args.trace)
    problems = validate_trace(records)
    if problems:
        for problem in problems:
            print(f"[trace-report] invalid trace: {problem}", file=sys.stderr)
        return 2

    baseline_path = None if args.baseline is None else Path(args.baseline)
    if args.update_baseline:
        if baseline_path is None:
            print("[trace-report] --update-baseline needs --baseline PATH", file=sys.stderr)
            return 2
        cells = cell_walls(records)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(cells, indent=2, sort_keys=True) + "\n")
        print(f"[trace-report] baseline updated: {baseline_path} ({len(cells)} cells)")
        return 0

    baseline = None
    if baseline_path is not None:
        if not baseline_path.exists():
            print(f"[trace-report] baseline not found: {baseline_path}", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text())

    report, regressed = render_report(
        records, baseline=baseline, threshold=args.threshold
    )
    print(report, end="")
    if regressed:
        print(
            f"[trace-report] {len(regressed)} cell(s) regressed beyond "
            f"{args.threshold:.0%}: {', '.join(regressed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

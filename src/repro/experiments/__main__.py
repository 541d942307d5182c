"""Command-line experiment driver: ``python -m repro.experiments``.

Regenerates the paper's figures/tables outside pytest.  Examples::

    python -m repro.experiments --list
    python -m repro.experiments fig1 fig3 --scale medium
    python -m repro.experiments fig4 --scale medium --results-dir out/
    python -m repro.experiments fig4 --trace results/trace_fig4.jsonl

Each experiment measures the campaigns its runner takes and calls it
(:data:`repro.experiments.runners.EXPERIMENTS`, the runners the
``benchmarks/`` suite calls too): the runner prints its terminal
rendering and exports its series (CSV/JSON) to ``--results-dir``, by
default ``results/`` at paper scale and ``results/<scale>/`` below it.
Every experiment runs with :mod:`repro.obs` recording (bit-neutral)
and prints its ``[stages]`` breakdown from the ``stage`` spans.
``--trace PATH`` (or the ``REPRO_TRACE`` environment variable)
additionally writes one JSONL observability trace per experiment —
summarize it with ``python tools/trace_report.py PATH``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .. import obs
from ..errors import ValidationError
from .config import config_for_scale, results_dir
from .runners import EXPERIMENTS
from .usecase1 import measure_campaigns


def _stages_line() -> str:
    """``[stages]`` phase breakdown from the run's ``stage`` span totals."""
    totals = obs.run_summary()["stages_s"]
    parts = " | ".join(f"{name} {secs:.2f}s" for name, secs in totals.items())
    return f"[stages] {parts}  (total {sum(totals.values()):.2f}s)"


def _trace_path(base: str, experiment: str, n_experiments: int) -> Path:
    """Trace destination for one experiment under the ``--trace`` flag.

    A single experiment writes exactly to the given path; with several
    experiments the id is inserted before the suffix
    (``trace.jsonl`` -> ``trace.fig4.jsonl``) so each run keeps its own
    file.
    """
    path = Path(base)
    if n_experiments == 1:
        return path
    suffix = path.suffix or ".jsonl"
    return path.with_name(f"{path.stem}.{experiment.replace('/', '_')}{suffix}")


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (see --list)")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--scale", default="small", choices=("paper", "medium", "small"))
    parser.add_argument("--results-dir", default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--trace",
        default=os.environ.get("REPRO_TRACE") or None,
        metavar="PATH",
        help="write a JSONL repro.obs trace per experiment "
        "(default: the REPRO_TRACE environment variable)",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:", ", ".join(EXPERIMENTS))
        return 0

    cfg = config_for_scale(args.scale, args.workers)
    out_dir = args.results_dir or results_dir(args.scale)
    for name in args.experiments:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; use --list", file=sys.stderr)
            return 2
        runner, systems = EXPERIMENTS[name]
        t0 = time.time()
        print(f"=== {name} (scale={args.scale}) ===")
        obs.enable()
        try:
            with obs.span("stage", stage="measure"):
                campaign_sets = [measure_campaigns(cfg, system) for system in systems]
            runner(cfg, out_dir, *campaign_sets)
            print(_stages_line())
            if args.trace:
                out = obs.write_trace(
                    _trace_path(args.trace, name, len(args.experiments)),
                    meta={
                        "experiment": name,
                        "scale": args.scale,
                        "n_workers": args.workers,
                    },
                )
                print(f"[trace] wrote {out}")
        except ValidationError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        finally:
            obs.disable()
        print(f"[{name} done in {time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

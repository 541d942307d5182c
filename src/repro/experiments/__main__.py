"""Command-line experiment driver: ``python -m repro.experiments``.

Regenerates the paper's figures/tables outside pytest.  Examples::

    python -m repro.experiments --list
    python -m repro.experiments fig1 fig3 --scale small
    python -m repro.experiments fig4 --scale medium --results-dir out/
    python -m repro.experiments fig4 --trace results/trace_fig4.jsonl

Each experiment prints its terminal rendering and exports its series to
the results directory (CSV/JSON).  Every experiment runs with
:mod:`repro.obs` recording (bit-neutral; the grid figures print their
``[stages]`` breakdown from its ``stage`` spans).  ``--trace PATH`` (or
the ``REPRO_TRACE`` environment variable) additionally writes one JSONL
observability trace per experiment — summarize it with
``python tools/trace_report.py PATH``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .. import obs
from ..viz.export import export_series, export_table
from . import figures, reporting, usecase1, usecase2
from .config import PAPER_CONFIG, ExperimentConfig


def _config_for_scale(scale: str, workers: int) -> ExperimentConfig:
    from dataclasses import replace

    if scale == "paper":
        cfg = PAPER_CONFIG
    elif scale == "medium":
        cfg = PAPER_CONFIG.scaled_down(n_benchmarks=32, n_runs=500)
    elif scale == "small":
        cfg = PAPER_CONFIG.scaled_down(n_benchmarks=16, n_runs=300)
    else:
        raise SystemExit(f"unknown scale {scale!r}")
    return replace(cfg, n_workers=workers)


def run_fig1(cfg, out):
    """Fig. 1 — motivation: measured vs small-sample vs predicted KDEs."""
    campaigns = usecase1.measure_campaigns(cfg, "intel")
    data = figures.figure1(campaigns, cfg)
    from ..viz.ascii import density_ascii

    lo, hi = float(data.measured.min()) - 0.02, float(data.measured.max()) + 0.02
    print(density_ascii(data.measured, label="(a) measured", x_range=(lo, hi)))
    for k in sorted(data.small_samples):
        print(density_ascii(data.small_samples[k], label=f"{k} samples", x_range=(lo, hi)))
    print(density_ascii(data.predicted, label="(f) predicted", x_range=(lo, hi)))
    print(f"prediction KS = {data.prediction_ks:.3f}")
    export_series(
        {
            "measured": data.measured,
            "predicted": data.predicted,
            "ks": data.prediction_ks,
        },
        "fig1_motivation",
        out,
    )


def run_fig3(cfg, out):
    """Fig. 3 — relative-time distribution zoo on the Intel system."""
    campaigns = usecase1.measure_campaigns(cfg, "intel")
    from ..viz.ascii import density_ascii

    for name in sorted(campaigns):
        print(density_ascii(campaigns[name].relative_times(), label=name, width=56, x_range=(0.9, 1.4)))
    export_table(figures.figure3(campaigns), "fig3_shape_summary", out)


def _stages_line() -> str:
    """``[stages]`` phase breakdown from the run's ``stage`` span totals."""
    totals = obs.run_summary()["stages_s"]
    parts = " | ".join(f"{name} {secs:.2f}s" for name, secs in totals.items())
    return f"[stages] {parts}  (total {sum(totals.values()):.2f}s)"


def run_fig4(cfg, out):
    """Fig. 4 — UC1 representation x model grid (with stage timing)."""
    with obs.span("stage", stage="measure"):
        campaigns = usecase1.measure_campaigns(cfg, "intel")
    grid = usecase1.representation_model_grid(campaigns, cfg)
    print(reporting.grid_report(grid, title="Fig. 4 — UC1 representation x model"))
    print(_stages_line())
    export_table(grid, "fig4_uc1_grid", out)


_FIG5_BENCHMARKS = (
    "spec_accel/359",
    "npb/bt",
    "rodinia/heartwall",
    "mllib/dtclassifier",
    "spec_accel/303",
    "spec_omp/376",
    "parsec/streamcluster",
)

_FIG9_BENCHMARKS = (
    "npb/is",
    "rodinia/heartwall",
    "parboil/bfs",
    "mllib/gbtclassifier",
    "parsec/canneal",
    "mllib/correlation",
)


def _print_overlays(examples, name, out):
    """Render overlay examples by ascending KS and export them as *name*."""
    from ..viz.ascii import overlay_ascii

    series = {}
    for ex in sorted(examples, key=lambda e: e.ks):
        print(f"\n{ex.benchmark}  KS={ex.ks:.3f}")
        print(overlay_ascii(ex.measured, ex.predicted, label=ex.benchmark.split("/")[1]))
        series[ex.benchmark] = {"ks": ex.ks, "measured": ex.measured, "predicted": ex.predicted}
    export_series(series, name, out)


def run_fig5(cfg, out):
    """Fig. 5 — UC1 measured-vs-predicted overlay examples."""
    campaigns = usecase1.measure_campaigns(cfg, "intel")
    available = tuple(b for b in _FIG5_BENCHMARKS if b in campaigns)
    _print_overlays(
        usecase1.overlay_examples(campaigns, available, cfg), "fig5_uc1_overlays", out
    )


def run_fig9(cfg, out):
    """Fig. 9 — UC2 measured-vs-predicted overlay examples."""
    amd, intel = usecase2.measure_both_systems(cfg)
    available = tuple(b for b in _FIG9_BENCHMARKS if b in amd and b in intel)
    _print_overlays(
        usecase2.overlay_examples(amd, intel, available, cfg), "fig9_uc2_overlays", out
    )


def run_fig6(cfg, out):
    """Fig. 6 — UC1 KS vs probe-sample count sweep."""
    campaigns = usecase1.measure_campaigns(cfg, "intel")
    sweep = usecase1.sample_count_sweep(campaigns, cfg)
    print(reporting.sweep_report(sweep, title="Fig. 6 — UC1 KS vs #samples"))
    export_table(sweep, "fig6_uc1_samples", out)


def run_fig7(cfg, out):
    """Fig. 7 — UC2 representation x model grid (with stage timing)."""
    with obs.span("stage", stage="measure"):
        amd, intel = usecase2.measure_both_systems(cfg)
    grid = usecase2.representation_model_grid(amd, intel, cfg)
    print(reporting.grid_report(grid, title="Fig. 7 — UC2 representation x model"))
    print(_stages_line())
    export_table(grid, "fig7_uc2_grid", out)


def run_fig8(cfg, out):
    """Fig. 8 — UC2 prediction-direction study."""
    amd, intel = usecase2.measure_both_systems(cfg)
    table = usecase2.direction_study(amd, intel, cfg)
    print(reporting.direction_report(table, title="Fig. 8 — UC2 direction study"))
    export_table(table, "fig8_uc2_direction", out)


def run_tables(cfg, out):
    """Tables I-III — roster and profiling-metric catalogs."""
    print(figures.table1().to_markdown())
    print()
    print(f"Table II/III: {len(figures.table2_3())} metrics")
    export_table(figures.table1(), "table1_roster", out)
    export_table(figures.table2_3(), "tables2_3_metrics", out)


EXPERIMENTS = {
    "tables": run_tables,
    "fig1": run_fig1,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
}


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

    cfg = _config_for_scale(args.scale, args.workers)
    for name in args.experiments:
        fn = EXPERIMENTS.get(name)
        if fn is None:
            print(f"unknown experiment {name!r}; use --list", file=sys.stderr)
            return 2
        t0 = time.time()
        print(f"=== {name} (scale={args.scale}) ===")
        obs.enable()
        try:
            fn(cfg, args.results_dir)
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
        finally:
            obs.disable()
        print(f"[{name} done in {time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

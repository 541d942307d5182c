"""One runner per paper figure or table, behind both figure drivers.

``run_<id>(cfg, out, *campaign_sets)`` computes its figure's data,
prints it, exports it (CSV/JSON) to the directory *out* and returns it.
:data:`EXPERIMENTS` maps each id to its runner and the systems whose
campaigns it takes.  ``python -m repro.experiments`` measures them;
``benchmarks/`` passes its cached campaigns and asserts the paper's
shape on the result.  The package init leaves this module out, so
importing ``repro.experiments.config`` loads no figure stack.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.config import EvalConfig
from ..core.engine import CrossSystemDesign, FewRunsDesign
from ..core.evaluation import evaluate_cross_system, evaluate_few_runs, summarize_ks
from ..core.sketch import ASSUMPTIONS, DEFAULT_SKETCH_LEVELS
from ..stats import ks_statistic
from ..stats.kde import GaussianKDE
from ..viz.ascii import density_ascii, overlay_ascii
from ..viz.export import export_series, export_table
from . import figures, reporting, usecase1, usecase2

__all__ = ["EXPERIMENTS", "FIG5_BENCHMARKS", "FIG9_BENCHMARKS"]

#: The paper's Fig. 5 selection, from very narrow to a skewed long tail.
FIG5_BENCHMARKS = (
    "spec_accel/359", "spec_accel/304", "npb/bt", "rodinia/heartwall",  # very narrow
    "mllib/dtclassifier", "rodinia/ludomp",  # moderate
    "spec_accel/303", "spec_omp/376", "parboil/mrigridding",  # wide
    "parsec/streamcluster",  # skewed long tail
)

#: The paper's Fig. 9 selection, from narrow to wide.
FIG9_BENCHMARKS = (
    "npb/is", "rodinia/heartwall", "parboil/spmv",  # narrow
    "parboil/bfs", "mllib/gbtclassifier", "parboil/sgemm",  # moderate
    "parsec/bodytrack", "parsec/canneal", "mllib/correlation", "parboil/histo",  # wide
)


def run_tables(cfg, out):
    """Tables I-III — the benchmark roster and the metric catalogs."""
    roster, metrics = figures.table1(), figures.table2_3()
    systems = metrics["system"]
    print(roster.to_markdown())
    print(
        f"\nTable II: {int(np.sum(systems == 'intel'))} Intel metrics; "
        f"Table III: {int(np.sum(systems == 'amd'))} AMD metrics"
    )
    export_table(roster, "table1_roster", out)
    export_table(metrics, "tables2_3_metrics", out)
    return roster, metrics


def _kde_series(samples, n_grid: int) -> dict:
    grid, density = GaussianKDE.fit(samples).evaluate_on_grid(n_grid)
    return {"grid": grid, "density": density}


def run_fig1(cfg, out, intel):
    """Fig. 1 — measured vs. small-sample vs. predicted distributions."""
    data = figures.figure1(intel, cfg)
    x_range = (float(data.measured.min()) - 0.02, float(data.measured.max()) + 0.02)
    print(f"Fig. 1 — {data.benchmark}")
    print(density_ascii(data.measured, label="(a) measured", x_range=x_range))
    for k in sorted(data.small_samples):
        print(density_ascii(data.small_samples[k], label=f"(b-e) {k} samples", x_range=x_range))
    print(density_ascii(data.predicted, label="(f) predicted", x_range=x_range))
    n_raw = max(data.small_samples)
    ks_raw = ks_statistic(data.small_samples[n_raw], data.measured)
    print(f"prediction KS = {data.prediction_ks:.3f}; {n_raw} raw samples KS = {ks_raw:.3f}")
    series = {
        "benchmark": data.benchmark,
        "measured_kde": _kde_series(data.measured, 256),
        "small_samples": {str(k): v for k, v in data.small_samples.items()},
        "predicted_kde": _kde_series(data.predicted, 256),
        "prediction_ks": data.prediction_ks,
    }
    export_series(series, "fig1_motivation", out)
    return data


def run_fig3(cfg, out, intel):
    """Fig. 3 — the relative-time distribution of every benchmark (Intel)."""
    table = figures.figure3(intel)
    print("Fig. 3 — relative-time densities (Intel)")
    densities = {}
    for name in sorted(intel):
        rel = intel[name].relative_times()
        print(density_ascii(rel, label=name, width=56, x_range=(0.9, 1.4)))
        densities[name] = _kde_series(rel, 128)
    stds = np.asarray(table["std"], dtype=float)
    spans = np.asarray(table["span_p01_p99"], dtype=float)
    print(
        f"std range: [{stds.min():.4f}, {stds.max():.4f}]  "
        f"span p01-p99 range: [{spans.min():.3f}, {spans.max():.3f}]"
    )
    export_table(table, "fig3_shape_summary", out)
    export_series(densities, "fig3_densities", out)
    return table


def _grid(grid, title: str, name: str, out):
    """Report a representation x model grid; export it and its cell means."""
    print(reporting.grid_report(grid, title=title))
    export_table(grid, f"{name}_grid", out)
    export_table(reporting.grid_mean_ks(grid), f"{name}_means", out)
    return grid


def run_fig4(cfg, out, intel):
    """Fig. 4 — use case 1: KS by representation x model."""
    grid = usecase1.representation_model_grid(intel, cfg)
    return _grid(grid, "Fig. 4 — UC1 representation x model", "fig4_uc1", out)


def _overlays(examples, title: str, name: str, out):
    """Render overlay examples by ascending KS and export them as *name*."""
    print(title)
    series = {}
    for ex in sorted(examples, key=lambda e: e.ks):
        print(f"\n{ex.benchmark}  KS={ex.ks:.3f}")
        print(overlay_ascii(ex.measured, ex.predicted, label=ex.benchmark.split("/")[1]))
        series[ex.benchmark] = {"ks": ex.ks, "measured": ex.measured, "predicted": ex.predicted}
    export_series(series, name, out)
    return examples


def run_fig5(cfg, out, intel):
    """Fig. 5 — use case 1 overlays of the measured :data:`FIG5_BENCHMARKS`."""
    examples = usecase1.overlay_examples(intel, FIG5_BENCHMARKS, cfg)
    return _overlays(examples, "Fig. 5 — UC1 overlays (PearsonRnd + kNN)", "fig5_uc1_overlays", out)


def run_fig6(cfg, out, intel):
    """Fig. 6 — use case 1: KS vs. the number of probe runs."""
    sweep = usecase1.sample_count_sweep(intel, cfg)
    print(reporting.sweep_report(sweep, title="Fig. 6 — UC1 KS vs #samples"))
    export_table(sweep, "fig6_uc1_samples", out)
    return sweep


def run_fig7(cfg, out, amd, intel):
    """Fig. 7 — use case 2: KS by representation x model (AMD -> Intel)."""
    grid = usecase2.representation_model_grid(amd, intel, cfg)
    return _grid(grid, "Fig. 7 — UC2 representation x model (AMD->Intel)", "fig7_uc2", out)


def run_fig8(cfg, out, amd, intel):
    """Fig. 8 — use case 2: AMD -> Intel vs. Intel -> AMD."""
    table = usecase2.direction_study(amd, intel, cfg)
    print(reporting.direction_report(table, title="Fig. 8 — UC2 direction study"))
    export_table(table, "fig8_uc2_direction", out)
    return table


def run_fig9(cfg, out, amd, intel):
    """Fig. 9 — use case 2 overlays of the measured :data:`FIG9_BENCHMARKS`."""
    examples = usecase2.overlay_examples(amd, intel, FIG9_BENCHMARKS, cfg)
    return _overlays(
        examples, "Fig. 9 — UC2 overlays (PearsonRnd + kNN, AMD -> Intel)", "fig9_uc2_overlays", out
    )


def run_probes(cfg, out, intel, amd):
    """Percentile-only probes: the KS cost of predicting from a sketch.

    Both use cases train kNN on full distributions, then score every
    representation twice: from raw probe runs (the paper's protocol) and
    from percentile-only :class:`~repro.core.sketch.SketchProbe` inputs
    (p50/p90/p95/p99) under each moment-recovery assumption.  Use case 2
    predicts AMD from Intel over the benchmarks measured on both.
    """
    uc1 = FewRunsDesign(
        intel, n_probe_runs=cfg.n_probe_runs, n_replicas=cfg.n_replicas_uc1, seed=cfg.eval_seed
    )
    uc2 = CrossSystemDesign(intel, amd, n_replicas=cfg.n_replicas_uc2, seed=cfg.eval_seed)
    record: dict = {"sketch_levels": [float(x) for x in DEFAULT_SKETCH_LEVELS]}
    print("Percentile-only probes — mean KS, kNN, full probe vs. sketch (+degradation)")
    for usecase, evaluate, design in (
        ("uc1", evaluate_few_runs, uc1),
        ("uc2", evaluate_cross_system, uc2),
    ):
        rows = record[usecase] = []
        for rep_name in cfg.representations:
            base = EvalConfig(representation=rep_name, model="knn", seed=cfg.eval_seed)
            full = summarize_ks(evaluate(config=base, design=design)).mean
            row = {"representation": rep_name, "model": "knn", "ks_full": full}
            for assumption in ASSUMPTIONS:
                sketch = replace(base, probe_kind="sketch", assumption=assumption)
                ks = summarize_ks(evaluate(config=sketch, design=design)).mean
                row[f"ks_sketch_{assumption}"] = ks
                row[f"degradation_{assumption}"] = ks - full
            rows.append(row)
            print(
                f"{usecase} {rep_name:<10} full {full:.4f}"
                + "".join(
                    f"  {a} {row[f'ks_sketch_{a}']:.4f} ({row[f'degradation_{a}']:+.4f})"
                    for a in ASSUMPTIONS
                )
            )
    export_series(record, "probe_degradation", out)
    return record


#: Experiment id -> (runner, systems whose campaigns it takes, in order).
EXPERIMENTS = {
    "tables": (run_tables, ()),
    "fig1": (run_fig1, ("intel",)),
    "fig3": (run_fig3, ("intel",)),
    "fig4": (run_fig4, ("intel",)),
    "fig5": (run_fig5, ("intel",)),
    "fig6": (run_fig6, ("intel",)),
    "fig7": (run_fig7, ("amd", "intel")),
    "fig8": (run_fig8, ("amd", "intel")),
    "fig9": (run_fig9, ("amd", "intel")),
    "probes": (run_probes, ("intel", "amd")),
}

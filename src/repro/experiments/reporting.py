"""Text reporting of experiment results.

Turns the long-form tables the runners produce into the compact summaries
the paper states in prose — e.g. "the mean KS score of the PearsonRnd
representation for the best choice of model is 0.241" — plus terminal
violin renderings of the figures.
"""

from __future__ import annotations

import numpy as np

from ..data.table import ColumnTable
from ..viz.ascii import violin_ascii

__all__ = [
    "grid_mean_ks",
    "best_by_representation",
    "best_by_model",
    "grid_report",
    "sweep_report",
    "direction_report",
]


def grid_mean_ks(grid: ColumnTable) -> ColumnTable:
    """Mean KS per (representation, model) from a long-form grid table."""
    reps = grid["representation"]
    models = grid["model"]
    ks = np.asarray(grid["ks"], dtype=np.float64)
    rows = []
    for rep in sorted(set(reps)):
        for model in sorted(set(models)):
            mask = (reps == rep) & (models == model)
            rows.append(
                {
                    "representation": rep,
                    "model": model,
                    "mean_ks": float(ks[mask].mean()),
                    "median_ks": float(np.median(ks[mask])),
                }
            )
    return ColumnTable.from_rows(rows)


def best_by_representation(grid: ColumnTable) -> dict[str, float]:
    """Per representation: the mean KS of its best model (paper's numbers)."""
    means = grid_mean_ks(grid)
    out: dict[str, float] = {}
    for row in means.rows():
        rep = str(row["representation"])
        val = float(row["mean_ks"])
        out[rep] = min(out.get(rep, np.inf), val)
    return out


def best_by_model(grid: ColumnTable) -> dict[str, float]:
    """Per model: the mean KS of its best representation."""
    means = grid_mean_ks(grid)
    out: dict[str, float] = {}
    for row in means.rows():
        model = str(row["model"])
        val = float(row["mean_ks"])
        out[model] = min(out.get(model, np.inf), val)
    return out


def grid_report(grid: ColumnTable, *, title: str) -> str:
    """Violin rendering + ranked summary of a representation x model grid."""
    reps = grid["representation"]
    models = grid["model"]
    ks = np.asarray(grid["ks"], dtype=np.float64)
    groups = {}
    for rep in sorted(set(reps)):
        for model in sorted(set(models)):
            mask = (reps == rep) & (models == model)
            groups[f"{rep}+{model}"] = ks[mask]
    lines = [title, "=" * len(title), violin_ascii(groups), ""]
    lines.append("best model per representation: " + str(
        {k: round(v, 3) for k, v in best_by_representation(grid).items()}
    ))
    lines.append("best representation per model: " + str(
        {k: round(v, 3) for k, v in best_by_model(grid).items()}
    ))
    return "\n".join(lines)


def sweep_report(sweep: ColumnTable, *, title: str) -> str:
    """Violin rendering of a sample-count sweep (Fig. 6)."""
    counts = np.asarray(sweep["n_samples"])
    ks = np.asarray(sweep["ks"], dtype=np.float64)
    groups = {
        f"n={int(c)}": ks[counts == c] for c in sorted(set(counts.tolist()))
    }
    means = {name: float(v.mean()) for name, v in groups.items()}
    lines = [title, "=" * len(title), violin_ascii(groups), "", f"mean KS: {means}"]
    return "\n".join(lines)


def direction_report(table: ColumnTable, *, title: str) -> str:
    """Violin rendering of the direction study (Fig. 8)."""
    dirs = table["direction"]
    ks = np.asarray(table["ks"], dtype=np.float64)
    groups = {str(d): ks[dirs == d] for d in sorted(set(dirs))}
    lines = [title, "=" * len(title), violin_ascii(groups)]
    return "\n".join(lines)

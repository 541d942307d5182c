"""Evaluation-grid workloads: the Fig. 4 (UC1) and Fig. 7 (UC2) grids.

A *pass* is one call of the grid runner over all nine (representation,
model) cells.  Set-up is the cold campaign measurement into a fresh
on-disk cache plus the warm reload a later run would do.  Every pass
after the first must reproduce the first pass's KS values bit for bit;
at the default seed the KS sum must also equal the repository's anchor.
"""

from __future__ import annotations

import resource
import time
from dataclasses import replace

import numpy as np

from common import DEFAULT_SEED, N_BENCHMARKS, N_RUNS, fresh_dir, median

#: workload -> (use case, systems measured, tree kernel, workers, KS anchor)
GRIDS = {
    "uc1_exact_serial": ("uc1", ("intel",), "exact", 1, 31.002131067134854),
    "uc2_hist_pooled": ("uc2", ("amd", "intel"), "hist", 2, 30.527543831983884),
}

#: Passes per run at least; more while ``--seconds`` is not used up.
MIN_PASSES = 2


def _config(seed: int, tree_method: str, n_workers: int):
    from repro.experiments.config import PAPER_CONFIG

    cfg = PAPER_CONFIG.scaled_down(n_benchmarks=N_BENCHMARKS, n_runs=N_RUNS)
    return replace(cfg, root_seed=seed, tree_method=tree_method, n_workers=n_workers)


def _set_up(cfg, systems, root) -> tuple[dict, float]:
    """Cold measurement into a fresh cache, then a warm reload from disk."""
    from repro.data.campaign_cache import CampaignCache
    from repro.simbench.runner import cached_measure_all

    t0 = time.perf_counter()
    kwargs = dict(benchmarks=cfg.benchmarks, n_runs=cfg.n_runs,
                  root_seed=cfg.root_seed, n_workers=1)
    for system in systems:
        cached_measure_all(system, cache=CampaignCache(root), **kwargs)
    warm = CampaignCache(root)
    campaigns = {s: cached_measure_all(s, cache=warm, **kwargs) for s in systems}
    return campaigns, time.perf_counter() - t0


def _one_pass(use_case: str, campaigns: dict, cfg) -> tuple[float, np.ndarray, list]:
    """Wall seconds of one grid pass, its KS column and each row's cell."""
    from repro.experiments import usecase1, usecase2

    t0 = time.perf_counter()
    if use_case == "uc1":
        grid = usecase1.representation_model_grid(campaigns["intel"], cfg)
    else:
        grid = usecase2.representation_model_grid(
            campaigns["amd"], campaigns["intel"], cfg
        )
    wall = time.perf_counter() - t0
    cells = [f"{r}-{m}" for r, m in zip(grid["representation"], grid["model"])]
    return wall, np.asarray(grid["ks"], dtype=np.float64), cells


def _check(passes: list, anchor: float | None) -> tuple[int, int]:
    """(attempted, failed) cells: bit-equal to pass 1, and pass 1 to the anchor."""
    first_ks, cells = passes[0]
    rows = {c: [i for i, label in enumerate(cells) if label == c] for c in cells}
    attempted = failed = 0
    for ks, _cells in passes:
        wrong_sum = anchor is not None and float(ks.sum()) != anchor
        for idx in rows.values():
            attempted += 1
            if wrong_sum or ks[idx].tobytes() != first_ks[idx].tobytes():
                failed += 1
    return attempted, failed


def end_to_end(setups_s: list[float], walls: list[float], attempted: int,
               failed: int) -> dict:
    """End-to-end metrics of an untraced run (a grid cell is one operation)."""
    return {
        "setup_s": median(setups_s),
        # Noise on a shared machine only ever slows a pass, so the fastest
        # pass is the least noisy estimate of what the grid costs.
        "latency_ms": min(walls) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ok_rate": (attempted - failed) / attempted,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work) -> dict:
    """Run one grid workload; returns the result dict for ``workload.py``."""
    use_case, systems, tree_method, n_workers, anchor = GRIDS[workload]
    cfg = _config(seed, tree_method, n_workers)

    setups = [_set_up(cfg, systems, fresh_dir(work, f"setup{i}"))
              for i in range(1 if trace else 3)]
    campaigns = setups[-1][0]

    walls, passes = [], []
    started = time.perf_counter()
    while True:
        wall, ks, cells = _one_pass(use_case, campaigns, cfg)
        walls.append(wall)
        passes.append((ks, cells))
        elapsed = time.perf_counter() - started
        if trace or (len(walls) >= MIN_PASSES and elapsed >= seconds):
            break

    if trace:
        from layers import trace_grid

        metrics, (traced_wall, ks, cells) = trace_grid(
            lambda: _set_up(cfg, systems, fresh_dir(work, "traced-setup")),
            lambda: _one_pass(use_case, campaigns, cfg),
        )
        passes.append((ks, cells))
        metrics["trace.overhead_frac"] = traced_wall / walls[0] - 1.0
    attempted, failed = _check(passes, anchor if seed == DEFAULT_SEED else None)
    if not trace:
        metrics = end_to_end([s[1] for s in setups], walls, attempted, failed)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "diagnostics": {
            "passes": len(walls),
            "pass_walls_s": walls,
            "setup_walls_s": [s[1] for s in setups],
            "ks_checksum": float(passes[0][0].sum()),
        },
    }

"""Where the traced runs hook into the program, and how spans become metrics.

Each hook wraps a public function or method under the name the caller
looks it up by (see :mod:`tracer`).  Grid hooks run inside the workload
process; serving hooks run inside the server process, installed by
``launch_traced.py`` before the server starts.  Pool workers and fleet
shards are separate processes that load no hooks, so their internals are
not in any trace.
"""

from __future__ import annotations

from collections import defaultdict

from common import median, percentile
from tracer import Tracer, durations_by_name, self_times

GRID_CELLS = tuple(
    f"{rep}-{model}"
    for rep in ("histogram", "pymaxent", "pearsonrnd")
    for model in ("knn", "rf", "xgboost")
)


# -- grids ---------------------------------------------------------------------


def install_grid(tracer: Tracer) -> None:
    """Hook the evaluation path: measurement, design, folds, models, pool."""
    from repro import registry
    from repro.core import engine, representations
    from repro.data.campaign_cache import CampaignCache
    from repro.experiments import usecase1, usecase2
    from repro.ml import hist
    from repro.ml.binning import BinMapper
    from repro.ml.boosting import GradientBoostingRegressor
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.knn import KNNRegressor
    from repro.ml.tree import RegressionTree
    from repro.parallel.shm import SharedArrayStore
    from repro.parallel.worker_pool import WorkerPool
    from repro.simbench import runner

    rep_names = {type(registry.representation(n)): n
                 for n in ("histogram", "pymaxent", "pearsonrnd")}

    def cell_attrs(args, kwargs, _result) -> dict:
        """The (representation, model) cell a ``fold_vectors`` call computes."""
        model = (kwargs.get("model_key") or "?").split("+")[0]
        return {"cell": f"{rep_names.get(type(args[2]), '?')}-{model}"}

    wrap = tracer.wrap
    wrap(runner, "measure_all", "simbench.measure")
    wrap(CampaignCache, "get", "data.cache_load")
    for design in (engine.FewRunsDesign, engine.CrossSystemDesign):
        wrap(design, "__init__", "core.design")
        wrap(design, "fold_vectors", "core.fold_vectors", cell_attrs)
    for use_case in (usecase1, usecase2):
        wrap(use_case, "score_fold_vectors", "core.score")
    for fn in ("ks_statistic", "ks_statistic_many", "ks_against_grid_cdf"):
        wrap(representations, fn, "stats.ks")
    for method in ("fit", "fit_binned"):
        wrap(RegressionTree, method, "ml.tree_fit")
        wrap(RandomForestRegressor, method, "ml.forest_fit")
        wrap(GradientBoostingRegressor, method, "ml.boost_fit")
    wrap(hist, "grow_trees", "ml.grow_trees")
    wrap(engine, "fit_predict_folds", "ml.lockstep")
    wrap(BinMapper, "fit", "ml.binning")
    wrap(BinMapper, "transform", "ml.binning")
    wrap(KNNRegressor, "fit", "ml.knn")
    wrap(KNNRegressor, "predict", "ml.knn")
    wrap(WorkerPool, "map", "parallel.map")
    wrap(SharedArrayStore, "publish", "parallel.publish",
         lambda args, kwargs, _r: {"bytes": int(args[1].nbytes)})


def _outer(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Seconds and calls per span name, counting a span nested in its own
    name (``fit_binned`` calling ``fit``) once."""
    names = {s[0]: s[1] for s in spans}
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for _sid, name, t0, t1, parent, _extra in spans:
        if names.get(parent) != name:
            seconds[name] += t1 - t0
            calls[name] += 1
    return seconds, calls


def grid_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced set-up plus one traced grid pass."""
    total, calls = _outer(spans)
    own = self_times(spans)
    m = {
        "simbench.measure_s": total["simbench.measure"],
        "data.cache_load_s": total["data.cache_load"],
        "core.design_s": total["core.design"],
        "core.fold_vectors_s": total["core.fold_vectors"],
        "core.fold_vectors_calls": calls["core.fold_vectors"],
        "core.score_s": total["core.score"],
        "stats.ks_s": total["stats.ks"],
        "ml.tree_fit_s": own.get("ml.tree_fit", 0.0),
        "ml.tree_fit_calls": calls["ml.tree_fit"],
        "ml.forest_fit_s": total["ml.forest_fit"],
        "ml.boost_fit_s": total["ml.boost_fit"],
        "ml.grow_trees_s": total["ml.grow_trees"],
        "ml.grow_trees_calls": calls["ml.grow_trees"],
        "ml.lockstep_s": total["ml.lockstep"],
        "ml.binning_s": total["ml.binning"],
        "ml.knn_s": total["ml.knn"],
        "parallel.map_s": total["parallel.map"],
        "parallel.map_calls": calls["parallel.map"],
        "parallel.publish_calls": calls["parallel.publish"],
        "parallel.publish_bytes": sum(
            s[5]["bytes"] for s in spans if s[1] == "parallel.publish"
        ),
    }
    # A cell is its fold_vectors call plus the score call that follows it.
    cells: dict[str, float] = defaultdict(float)
    current = None
    for _sid, name, t0, t1, _parent, extra in sorted(spans, key=lambda s: s[2]):
        if name == "core.fold_vectors":
            current = extra["cell"]
            cells[current] += t1 - t0
        elif name == "core.score" and current is not None:
            cells[current] += t1 - t0
            current = None
    for cell in GRID_CELLS:
        m[f"cell.{cell}_s"] = cells[cell]
    return m


def trace_grid(set_up, one_pass):
    """Run *set_up* and *one_pass* hooked; returns (metrics, pass result)."""
    tracer = Tracer()
    install_grid(tracer)
    try:
        set_up()
        result = one_pass()
    finally:
        tracer.restore()
    return grid_metrics(tracer.spans), result


# -- serving -------------------------------------------------------------------


def install_server(tracer: Tracer) -> None:
    """Hook the serving path inside a ``python -m repro.serving`` process."""
    from repro.core.predictors import FewRunsPredictor
    from repro.serving import service
    from repro.serving.fleet.router import ShardLink
    from repro.serving.registry import ModelRegistry

    wrap = tracer.wrap
    wrap(service.PredictionService, "submit", "serving.submit",
         lambda args, _k, _r: {"id": args[1].get("id")})
    wrap(service, "decode_probe", "serving.decode",
         lambda _a, _k, result: {"obj": id(result)})
    wrap(service, "probe_fingerprint", "serving.fingerprint")
    wrap(ModelRegistry, "resolve", "registry.resolve")
    wrap(ModelRegistry, "load", "serving.registry_load")
    wrap(FewRunsPredictor, "predict_vector", "core.predict_vector",
         lambda args, _k, _r: {"obj": id(args[1]), "kind": args[1].kind})
    wrap(ShardLink, "request", "fleet.shard_rtt",
         lambda args, _k, _r: {"op": args[1].get("op", "predict")})


def _in(span, window) -> bool:
    return window[0] <= span[2] <= window[1]


def direct_requests(spans, window) -> dict[str, dict]:
    """Per-request server-side breakdown (ms) for submits inside *window*.

    ``queue_batch`` is the residual: submit time minus the submit's own
    child spans (decode, fingerprint, resolve), the request's
    ``predict_vector`` and the registry load of its batch.  It holds the
    queue wait, the batch window, the executor hop and the batch-mates'
    compute.
    """
    children: dict[int, float] = defaultdict(float)
    parts: dict[int, dict[str, float]] = defaultdict(dict)
    for _sid, name, t0, t1, parent, _extra in spans:
        if parent >= 0:
            children[parent] += t1 - t0
            parts[parent][name] = parts[parent].get(name, 0.0) + (t1 - t0)
    submits = {s[0]: s for s in spans if s[1] == "serving.submit" and _in(s, window)}
    owner_of = defaultdict(list)  # probe object id -> submit spans that decoded it
    for _sid, name, _t0, _t1, parent, extra in spans:
        if name == "serving.decode" and parent in submits:
            owner_of[extra["obj"]].append(submits[parent])
    loads = sorted((s for s in spans if s[1] == "serving.registry_load"),
                   key=lambda s: s[2])
    out: dict[str, dict] = {}
    for sid, submit in submits.items():
        out[submit[5]["id"]] = {
            "submit": (submit[3] - submit[2]) * 1e3,
            "children": children[sid] * 1e3,
            "decode": parts[sid].get("serving.decode", 0.0) * 1e3,
            "fingerprint": parts[sid].get("serving.fingerprint", 0.0) * 1e3,
            "predict": 0.0,
            "load": 0.0,
        }
    load_idx = 0
    for _sid, name, t0, t1, _parent, extra in sorted(spans, key=lambda s: s[2]):
        if name != "core.predict_vector":
            continue
        while load_idx + 1 < len(loads) and loads[load_idx + 1][3] <= t0:
            load_idx += 1
        owners = [s for s in owner_of.get(extra["obj"], ()) if s[2] <= t0 <= s[3]]
        if not owners:
            continue
        row = out[owners[-1][5]["id"]]
        row["predict"] = (t1 - t0) * 1e3
        row["kind"] = extra["kind"]
        if loads and loads[load_idx][3] <= t0:
            row["load"] = (loads[load_idx][3] - loads[load_idx][2]) * 1e3
    for row in out.values():
        row["queue_batch"] = row["submit"] - row["children"] - row["predict"] - row["load"]
    return out


def direct_metrics(spans, lo: list, hi: list, windows: dict) -> dict[str, float]:
    """Serving-layer metrics of ``serve_direct`` from server spans.

    *lo* / *hi* are the generator's outcomes of the two open-loop phases;
    each answered request is matched to its submit span by ``id``.
    """
    rows = direct_requests(spans, windows["lo"])
    rows_hi = direct_requests(spans, windows["hi"])
    col = lambda key, src=rows: [r[key] for r in src.values()]  # noqa: E731
    wire = [
        (o.done - o.sent) * 1e3 - rows[o.rid]["submit"]
        for o in lo if o.done is not None and o.rid in rows
    ]
    durs = durations_by_name(s for s in spans if _in(s, windows["lo"]))
    return {
        "serving.submit_ms.p50": median(col("submit")),
        "serving.submit_ms.p99": percentile(col("submit"), 99),
        "serving.decode_ms.p50": median(col("decode")),
        "serving.fingerprint_ms.p50": median(col("fingerprint")),
        "serving.registry_load_ms.p50": median(durs["serving.registry_load"]) * 1e3,
        "serving.registry_load_calls": len(durs["serving.registry_load"]),
        "core.predict_vector_ms.samples.p50": median(
            [r["predict"] for r in rows.values() if r.get("kind") == "samples"]
        ),
        "core.predict_vector_ms.sketch.p50": median(
            [r["predict"] for r in rows.values() if r.get("kind") == "sketch"]
        ),
        "serving.queue_batch_ms.p50": median(col("queue_batch")),
        "serving.queue_batch_ms.hi.p99": percentile(col("queue_batch", rows_hi), 99),
        "serving.wire_ms.p50": median(wire),
        "serving.wire_ms.p99": percentile(wire, 99),
    }


def accounted_frac(spans, lo: list, window) -> float:
    """Sum of the layers' p50s over the end-to-end p50 of the *lo* requests.

    The layers are generator lateness, wire, the submit's child spans,
    ``predict_vector``, the registry load and the queue/batch residual.
    Per request they add up exactly; their medians need not.
    """
    rows = direct_requests(spans, window)
    matched = [o for o in lo if o.done is not None and o.rid in rows]
    if not matched:
        return 0.0
    parts = [
        [(o.sent - o.due) * 1e3 for o in matched],
        [(o.done - o.sent) * 1e3 - rows[o.rid]["submit"] for o in matched],
        *([rows[o.rid][key] for o in matched]
          for key in ("children", "predict", "load", "queue_batch")),
    ]
    return sum(median(p) for p in parts) / median([(o.done - o.due) * 1e3 for o in matched])


def fleet_metrics(spans, lo: list, router_lo_s: list, windows: dict) -> dict[str, float]:
    """Router-side metrics of ``serve_fleet`` (shard internals are invisible)."""
    rtt = [
        (s[3] - s[2]) * 1e3 for s in spans
        if s[1] == "fleet.shard_rtt" and s[5]["op"] == "predict" and _in(s, windows["lo"])
    ]
    resolve = [
        (s[3] - s[2]) * 1e3 for s in spans
        if s[1] == "registry.resolve" and _in(s, windows["lo"])
    ]
    router = [x * 1e3 for x in router_lo_s]
    client = [(o.done - o.sent) * 1e3 for o in lo if o.done is not None]
    return {
        "fleet.router_ms.p50": median(router),
        "fleet.router_ms.p99": percentile(router, 99),
        "fleet.shard_rtt_ms.p50": median(rtt),
        "fleet.shard_rtt_ms.p99": percentile(rtt, 99),
        "fleet.resolve_ms.p50": median(resolve),
        "fleet.hop_ms.p50": median(client) - median(router),
        "fleet.hop_ms.p99": percentile(client, 99) - percentile(router, 99),
    }

"""Serving workloads: ``python -m repro.serving serve`` and ``fleet``.

The system under test is the real CLI in its own process group.  Models
are fitted here and saved to a fresh registry root, so the CLI finds its
tag and only loads.  They are fitted on the default-seed campaigns: the
served models, their content keys and so their shard placement are the
same for every ``--seed``, which draws the traffic (probes from its own
campaigns, arrival times, sample seeds).  The generator
(:mod:`loadgen`) then drives the server's TCP port, and every answer is
checked against a direct ``predict_vector`` call made in this process.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    BENCH,
    DEFAULT_SEED,
    N_BENCHMARKS,
    N_RUNS,
    ROOT,
    child_env,
    end_group,
    fresh_dir,
    median,
    tree_peak_rss_mb,
)
from loadgen import (
    Request,
    latency_ms,
    lateness_ms,
    poisson_offsets,
    run_closed,
    run_open,
)

HOST = "127.0.0.1"
#: Connections the generator may open: one per core.
N_CONNS = max(1, min(2, len(os.sched_getaffinity(0))))
PORT_TIMEOUT_S = 60.0
#: A phase whose generator ran later than this at p99 did not hold its rate.
MAX_LATE_P99_MS = 5.0


@dataclass(frozen=True)
class Load:
    """Traffic shape of one serving workload."""

    command: str
    rates: tuple[float, float]       # open-loop lo / hi arrivals per second
    closed_depth: int | None          # pipelined requests per connection
    n_samples: int                    # distribution draws requested
    sketch_share: float               # share of percentile-only probes
    hot_share: float                  # share repeating a hot (model, probe)


LOADS = {
    "serve_direct": Load("serve", (60.0, 120.0), 8, 0, 0.2, 0.0),
    # No closed loop: pipelining 8 deep per connection made the shards'
    # Kingman gates shed ~1/4 of the requests, which count as failures.
    "serve_fleet": Load("fleet", (50.0, 100.0), None, 100, 0.0, 0.3),
}
#: serve_fleet models: 3 representations x 4 probe seeds.
FLEET_MODELS = tuple(
    (rep, seed) for rep in ("histogram", "pymaxent", "pearsonrnd") for seed in range(4)
)
N_HOT_PAIRS = 64
ZIPF_S = 1.3
N_PROBE_RUNS = 10
#: Requests prepared for the closed loop, per second of it; past this the
#: phase ends early and throughput is still answers over wall time.
CLOSED_MAX_RPS = 600


# -- the process under test ----------------------------------------------------


class Server:
    """One ``repro.serving`` CLI process (and its shards), started fresh."""

    def __init__(self, argv: list[str], log_path, spans_path=None) -> None:
        cmd = [sys.executable, "-u"]
        if spans_path is None:
            cmd += ["-m", "repro.serving"]
        else:
            cmd += [str(BENCH / "launch_traced.py"), "--spans", str(spans_path), "--"]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd + argv,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            self.port = self._wait_port()
            self._wait_ping()
        except BaseException:
            self.stop()
            raise

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.decode(errors="replace"))
        self._lines.put(None)

    def _wait_port(self) -> int:
        deadline = time.monotonic() + PORT_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"no port line within {PORT_TIMEOUT_S:.0f}s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(f"server exited with {self.proc.wait()} before binding")
            found = re.search(r"127\.0\.0\.1:(\d+)", line)
            if found:
                return int(found.group(1))

    def _wait_ping(self) -> None:
        deadline = time.monotonic() + PORT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if self.call({"op": "ping"}).get("status") == 200:
                    return
            except OSError:
                time.sleep(0.02)
        raise RuntimeError("server never answered ping")

    def call(self, payload: dict) -> dict:
        """One control request (``ping``, ``stats``, ``fleet``) on a fresh socket."""
        from repro.serving import ServingClient

        with ServingClient(HOST, self.port, timeout_s=30.0) as client:
            return client.request(payload)

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the server and its shard processes."""
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self, graceful: bool = True) -> None:
        """SIGINT for a graceful drain, then kill whatever is left of the group."""
        if graceful and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        end_group(self.proc, grace_s=20.0 if graceful else 0.0)
        self._reader.join(timeout=5)
        self._log.close()


# -- inputs --------------------------------------------------------------------


@dataclass
class Call:
    """What a request asked, kept to check its answer."""

    tag: str
    probe: object
    n_samples: int = 0
    sample_seed: int = 0


def _campaigns(seed: int) -> dict:
    from repro.experiments.config import PAPER_CONFIG
    from repro.simbench.runner import measure_all

    cfg = PAPER_CONFIG.scaled_down(n_benchmarks=N_BENCHMARKS, n_runs=N_RUNS)
    return measure_all("intel", benchmarks=cfg.benchmarks, n_runs=N_RUNS,
                       root_seed=seed, n_workers=1)


def _fit(workload: str, campaigns: dict, root) -> dict:
    """Fit and save the workload's models; returns tag -> predictor."""
    from repro.core.config import PredictConfig
    from repro.core.predictors import FewRunsPredictor
    from repro.serving import ModelRegistry

    registry = ModelRegistry(root)
    if workload == "serve_direct":
        specs = {"default": PredictConfig(model="knn", representation="pearsonrnd")}
    else:
        specs = {
            f"m{i:02d}": PredictConfig(model="knn", representation=rep, seed=1000 + s)
            for i, (rep, s) in enumerate(FLEET_MODELS)
        }
    models = {}
    for tag, config in specs.items():
        models[tag] = FewRunsPredictor.from_config(config).fit(campaigns)
        registry.save(models[tag], name=tag)
    return models


class Traffic:
    """Seeded request factory for one workload."""

    def __init__(self, workload: str, campaigns: dict, tags: list[str], seed: int):
        self.load = LOADS[workload]
        self.campaigns = campaigns
        self.names = sorted(campaigns)
        self.rng = np.random.default_rng(seed)
        self.tags = list(tags)
        weights = 1.0 / (np.arange(1, len(self.tags) + 1) ** ZIPF_S)
        self.popularity = weights / weights.sum()
        self.rate_sketches: dict[str, tuple] = {}
        self.hot = [self._fresh() for _ in range(N_HOT_PAIRS)] if self.load.hot_share else []
        self.calls: dict[str, Call] = {}

    def _sketch(self, subset):
        """A percentile-only probe of *subset*.

        Summarising all counter rates costs ~13 ms a probe, so the rate
        sketches come from the benchmark's first probe; the runtime sketch
        is taken from *subset*, which keeps every probe (and so every
        fingerprint) distinct.
        """
        from repro.core.sketch import QuantileSketch, SketchProbe

        rates = self.rate_sketches.get(subset.benchmark)
        if rates is None:
            rates = SketchProbe.from_campaign(subset).rate_sketches
            self.rate_sketches[subset.benchmark] = rates
        return SketchProbe(
            benchmark=subset.benchmark,
            system=subset.system,
            runtime_sketch=QuantileSketch.from_samples(subset.runtimes),
            rate_sketches=rates,
            metric_names=subset.metric_names,
        )

    def _fresh(self) -> Call:
        from repro.core.sketch import SampleProbe

        bench = self.names[self.rng.integers(len(self.names))]
        runs = np.sort(self.rng.choice(N_RUNS, N_PROBE_RUNS, replace=False))
        subset = self.campaigns[bench].subset(runs)
        if self.rng.random() < self.load.sketch_share:
            probe = self._sketch(subset)
        else:
            probe = SampleProbe(subset)
        tag = self.tags[self.rng.choice(len(self.tags), p=self.popularity)]
        seed = int(self.rng.integers(2**31)) if self.load.n_samples else 0
        return Call(tag, probe, self.load.n_samples, seed)

    def make(self, rid: str) -> Request:
        """The next request, registered under *rid* for checking."""
        from repro.serving.protocol import predict_request

        if self.hot and self.rng.random() < self.load.hot_share:
            call = self.hot[self.rng.integers(len(self.hot))]
        else:
            call = self._fresh()
        self.calls[rid] = call
        body = predict_request(call.tag, call.probe, n_samples=call.n_samples,
                               sample_seed=call.sample_seed, request_id=rid)
        return Request(rid, json.dumps(body).encode() + b"\n")

    def batch(self, prefix: str, n: int) -> list[Request]:
        return [self.make(f"{prefix}{i}") for i in range(n)]


# -- checking ------------------------------------------------------------------


def check(outcomes, traffic: Traffic, models: dict, recon_ms: list) -> int:
    """Failed operations: non-200, unanswered, or an answer that differs.

    Every vector must equal ``predict_vector`` bit for bit; every 10th
    ``samples`` payload must equal the reference draw byte for byte (its
    cost is appended to *recon_ms*).
    """
    from repro.serving.protocol import encode_array

    expected: dict[int, np.ndarray] = {}
    failed = sampled = 0
    for outcome in outcomes:
        call = traffic.calls[outcome.rid]
        if outcome.status != 200:
            failed += 1
            continue
        key = id(call)
        if key not in expected:
            expected[key] = models[call.tag].predict_vector(call.probe)
        vector = expected[key]
        got = np.asarray(outcome.body["vector"], dtype=np.float64)
        if got.tobytes() != vector.tobytes():
            failed += 1
            continue
        if call.n_samples:
            sampled += 1
            if sampled % 10 == 0:
                t0 = time.perf_counter()
                draws = models[call.tag].representation.reconstruct(vector).sample(
                    call.n_samples, rng=np.random.default_rng(call.sample_seed)
                )
                recon_ms.append((time.perf_counter() - t0) * 1e3)
                if outcome.body.get("samples") != encode_array(draws):
                    failed += 1
    return failed


# -- phases --------------------------------------------------------------------


def _freeze_heap() -> None:
    """Collect now and exempt survivors from later collections.

    The prepared requests and past outcomes are long-lived; without this a
    full collection over them can pause the generator mid-phase.
    """
    gc.collect()
    gc.freeze()


def _open_phase(server: Server, traffic: Traffic, name: str, rate: float,
                seconds: float, seed: int) -> tuple[list, tuple]:
    offsets = poisson_offsets(rate, seconds, seed)
    requests = traffic.batch(f"{name}-", len(offsets))
    _freeze_heap()
    outcomes = asyncio.run(run_open(HOST, server.port, requests, offsets, n_conns=N_CONNS))
    window = (outcomes[0].due - 0.01, max(o.done or o.due for o in outcomes) + 0.01)
    return outcomes, window


def _closed_phase(server: Server, traffic: Traffic, name: str, seconds: float,
                  depth: int, n_max: int) -> tuple[list, float]:
    requests = iter(traffic.batch(f"{name}-", n_max))
    _freeze_heap()
    return asyncio.run(run_closed(HOST, server.port, requests, seconds,
                                  n_conns=N_CONNS, depth=depth))


def _warm(server: Server, traffic: Traffic, n: int) -> None:
    """Untimed requests so every model is hydrated before measuring."""
    requests = iter(traffic.batch("warm-", n))
    asyncio.run(run_closed(HOST, server.port, requests, 30.0, n_conns=N_CONNS, depth=1))


def _server_stats(server: Server, fleet: bool) -> dict:
    """Service counters, summed over shards for the fleet."""
    reply = server.call({"op": "stats"})
    if not fleet:
        return reply["stats"]
    total: dict = {}
    for stats in reply["shards"].values():
        for key, value in stats.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return total


def _fleet_info(server: Server) -> dict:
    from repro.serving.protocol import decode_array

    reply = server.call({"op": "fleet", "samples": True})
    shape = tuple(reply["latency_samples_shape"])
    reply["samples"] = decode_array(reply["latency_samples"], shape=shape)
    return reply


# -- the workload --------------------------------------------------------------


def _argv(load: Load, root) -> list[str]:
    argv = [load.command, "--root", str(root)]
    if load.command == "serve":
        return argv + ["--tag", "default"]
    return argv + ["--tag", "m00", "--n-shards", "2"]


def _set_up(workload: str, training: dict, root, spans_path=None):
    """Fit + save the models, start the server, wait for ``ping``."""
    t0 = time.perf_counter()
    models = _fit(workload, training, root / "models")
    server = Server(_argv(LOADS[workload], root / "models"), root / "server.log",
                    spans_path)
    return server, models, time.perf_counter() - t0


@dataclass
class Measured:
    """What one serving run observed, before it is summarised."""

    fleet: bool
    setups: list[float]
    outcomes: dict[str, list]            # phase -> loadgen outcomes
    windows: dict[str, tuple]            # phase -> (start, end), monotonic clock
    closed_wall: float | None            # None without a closed-loop phase
    stats: dict                          # the ``stats`` op, summed over shards
    peak_rss_mb: float
    fleet_info: dict = field(default_factory=dict)  # moment -> ``fleet`` op reply
    spans: list = field(default_factory=list)       # server spans, traced runs
    failed: dict = field(default_factory=dict)      # phase -> failed operations
    recon_ms: list = field(default_factory=list)    # reference draw timings


def _drive(workload: str, seed: int, seconds: float, trace: bool, work):
    """Set up, warm, run the phases; returns (Measured, traffic, models)."""
    from tracer import load_spans

    load = LOADS[workload]
    fleet = load.command == "fleet"
    phase_s = seconds / (2 if load.closed_depth is None else 3)
    closed_wall = None
    training, campaigns = _campaigns(DEFAULT_SEED), _campaigns(seed)
    seeds = [int(x) for x in np.random.SeedSequence([seed, 1]).generate_state(4)]
    servers, setups, outcomes, windows, info = [], [], {}, {}, {}
    spans_path = None
    try:
        for i in range(1 if trace else 3):
            if servers:
                servers.pop().stop(graceful=False)
            server, models, setup_s = _set_up(
                workload, training, fresh_dir(work, f"setup{i}"))
            servers.append(server)
            setups.append(setup_s)
        traffic = Traffic(workload, campaigns, list(models), seeds[0])
        _warm(server, traffic, 4 * len(models) + 20)
        if trace:
            # An untraced reference for trace.overhead_frac, then the traced server.
            outcomes["lo_untraced"], _ = _open_phase(
                server, traffic, "ref", load.rates[0], phase_s, seeds[1])
            servers.pop().stop(graceful=False)
            root = fresh_dir(work, "traced-setup")
            spans_path = root / "spans.jsonl"
            server, models, _ = _set_up(workload, training, root, spans_path)
            servers.append(server)
            _warm(server, traffic, 4 * len(models) + 20)
        if fleet:
            info["start"] = _fleet_info(server)
        for phase, rate, phase_seed in (("lo", load.rates[0], seeds[2]),
                                        ("hi", load.rates[1], seeds[3])):
            outcomes[phase], windows[phase] = _open_phase(
                server, traffic, phase, rate, phase_s, phase_seed)
            if fleet:
                info[phase] = _fleet_info(server)
        if load.closed_depth is not None:
            outcomes["closed"], closed_wall = _closed_phase(
                server, traffic, "closed", phase_s, load.closed_depth,
                n_max=int(CLOSED_MAX_RPS * phase_s))
        stats = _server_stats(server, fleet)
        if fleet:
            info["end"] = _fleet_info(server)
        peak_rss = server.peak_rss_mb()
    finally:
        for server in servers:
            server.stop()
    measured = Measured(fleet, setups, outcomes, windows, closed_wall, stats,
                        peak_rss, info, load_spans(spans_path) if trace else [])
    return measured, traffic, models


def summarize(m: Measured, trace: bool) -> tuple[dict, dict]:
    """(metrics, diagnostics) of a checked run: end-to-end or per-layer."""
    diagnostics = {"setup_walls_s": m.setups, "failed": m.failed}
    if m.closed_wall is not None:
        closed = m.outcomes["closed"]
        diagnostics["n.closed"] = len(closed)
        diagnostics["sat_rps"] = (len(closed) - m.failed.get("closed", 0)) / m.closed_wall
    for name in ("lo", "hi"):
        for q in (50, 95, 99):
            diagnostics[f"p{q}_ms.{name}"] = latency_ms(m.outcomes[name], q)
        diagnostics[f"late_p99_ms.{name}"] = lateness_ms(m.outcomes[name], 99)
        diagnostics[f"n.{name}"] = len(m.outcomes[name])
    late = max(diagnostics["late_p99_ms.lo"], diagnostics["late_p99_ms.hi"])
    if late > MAX_LATE_P99_MS:
        diagnostics["invalid"] = f"generator late p99 {late:.2f} ms > {MAX_LATE_P99_MS} ms"
    if not trace:
        attempted = sum(len(outs) for outs in m.outcomes.values())
        return {
            "setup_s": median(m.setups),
            "latency_ms": diagnostics["p50_ms.lo"],
            "peak_rss_mb": m.peak_rss_mb,
            "ok_rate": (attempted - sum(m.failed.values())) / attempted,
        }, diagnostics

    from layers import accounted_frac, direct_metrics, fleet_metrics

    lo, stats = m.outcomes["lo"], m.stats
    metrics = {
        "trace.overhead_frac": diagnostics["p50_ms.lo"]
        / latency_ms(m.outcomes["lo_untraced"], 50) - 1.0,
        "loadgen.late_p99_ms": late,
        "serving.request_bytes.mean": float(np.mean([o.nbytes_out for o in lo])),
        "serving.response_bytes.mean": float(
            np.mean([o.nbytes_in for o in lo if o.done is not None])),
        "stats.reconstruct_sample_ms.p50": median(m.recon_ms),
        "serving.batches": stats["batches"],
        "serving.batch_size.mean": stats["batched_requests"] / max(1, stats["batches"]),
        "serving.cache_hit_rate": stats["cache_hits"]
        / max(1, stats["cache_hits"] + stats["cache_misses"]),
        "serving.rejected": stats["rejected"],
        "serving.expired": stats["expired"],
    }
    if not m.fleet:
        metrics.update(direct_metrics(m.spans, lo, m.outcomes["hi"], m.windows))
        diagnostics["accounted_frac.lo"] = accounted_frac(m.spans, lo, m.windows["lo"])
        return metrics, diagnostics
    info = m.fleet_info
    router_lo = info["lo"]["samples"][len(info["start"]["samples"]):, 0].tolist()
    metrics.update(fleet_metrics(m.spans, lo, router_lo, m.windows))
    health = list(info["end"]["health"].values())
    requests = [h["stats"]["requests"] for h in health]
    metrics.update({
        "fleet.forwarded": info["end"]["router"]["forwarded"],
        "fleet.hot_hits": info["end"]["router"]["hot_hits"],
        "fleet.shed": sum(h["admission"]["shed"] for h in health),
        "fleet.rho_max": max(h["admission"]["rho"] for h in info["hi"]["health"].values()),
        "fleet.shard_skew": max(requests) / max(1e-9, float(np.mean(requests))),
    })
    return metrics, diagnostics


def run(workload: str, seed: int, seconds: float, trace: bool, work) -> dict:
    """Run one serving workload; returns the result dict for ``workload.py``."""
    measured, traffic, models = _drive(workload, seed, seconds, trace, work)
    for phase, outcomes in measured.outcomes.items():
        measured.failed[phase] = check(outcomes, traffic, models, measured.recon_ms)
    metrics, diagnostics = summarize(measured, trace)
    attempted = sum(len(outs) for outs in measured.outcomes.values())
    failed = sum(measured.failed.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "diagnostics": diagnostics,
    }

#!/usr/bin/env python
"""Load harness for the prediction server and the sharded fleet.

Fits a small use-case-1 model, serves it over TCP, and drives it with
concurrent clients in two phases (response cache on, then off).  For
every phase it records throughput, latency percentiles, the batch-size
histogram, and cache statistics; it also verifies that every served
vector — cached or not, under any batching — is bit-identical to a
direct ``predict_vector`` call, which is the serving subsystem's core
contract.

Then the fleet phases (docs/FLEET.md): the same workload against a
2-shard fleet (must reach >= 1.5x the single-process throughput, with a
per-shard breakdown), a scripted shard join + leave under load (zero
dropped responses required), and the UC1 feedback figure — the router's
own latency samples replayed through ``predict_fleet_p99``.

Writes ``results/BENCH_serving.json``::

    PYTHONPATH=src python tools/bench_serving.py
    PYTHONPATH=src python tools/bench_serving.py --requests 400 --clients 8
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

ROSTER = ("npb/bt", "npb/cg", "npb/is", "parsec/streamcluster")
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "results" / "BENCH_serving.json"


def _percentiles_ms(latencies_s: list[float]) -> dict:
    """p50/p95/p99 of per-request latencies, in milliseconds."""
    arr = np.asarray(latencies_s, dtype=np.float64) * 1e3
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
        "mean_ms": float(arr.mean()),
        "max_ms": float(arr.max()),
    }


def run_phase(
    registry,
    probes: dict,
    expected: dict,
    *,
    cache_enabled: bool,
    n_requests: int,
    n_clients: int,
) -> dict:
    """Drive one server configuration and return its measurements.

    Every reply is checked bit-for-bit against the direct prediction for
    its probe; a single mismatch fails the harness.
    """
    from repro.serving import ServerHandle, ServingClient, ServingConfig
    from repro.serving.protocol import predict_request

    payloads = {bench: predict_request("bench", p) for bench, p in probes.items()}
    benches = sorted(payloads)
    schedule = [benches[i % len(benches)] for i in range(n_requests)]
    shards = [schedule[i::n_clients] for i in range(n_clients)]
    latencies: list[list[float]] = [[] for _ in range(n_clients)]
    mismatches: list[str] = []
    failures: list[str] = []

    config = ServingConfig(cache_enabled=cache_enabled)
    with ServerHandle(registry, config) as server:

        def client_loop(slot: int) -> None:
            try:
                with ServingClient("127.0.0.1", server.port) as client:
                    for bench in shards[slot]:
                        t0 = time.perf_counter()
                        reply = client.request(payloads[bench])
                        latencies[slot].append(time.perf_counter() - t0)
                        if reply.get("status") != 200:
                            failures.append(f"{bench}: {reply}")
                        elif not np.array_equal(
                            np.asarray(reply["vector"], dtype=np.float64),
                            expected[bench],
                        ):
                            mismatches.append(bench)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                failures.append(f"client {slot}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=client_loop, args=(slot,))
            for slot in range(n_clients)
        ]
        wall0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - wall0
        stats = server.service.stats()

    if failures:
        raise RuntimeError(f"serving failures: {failures[:5]}")
    if mismatches:
        raise RuntimeError(
            f"served vectors diverged from direct predictions: {sorted(set(mismatches))}"
        )

    flat = [x for shard in latencies for x in shard]
    hits, misses = stats["cache_hits"], stats["cache_misses"]
    lookups = hits + misses
    return {
        "cache_enabled": cache_enabled,
        "n_requests": n_requests,
        "n_clients": n_clients,
        "wall_s": wall,
        "throughput_rps": n_requests / wall,
        "latency": _percentiles_ms(flat),
        "batch_size_histogram": stats["batch_size_histogram"],
        "batches": stats["batches"],
        "batched_requests": stats["batched_requests"],
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": (hits / lookups) if lookups else 0.0,
        "rejected": stats["rejected"],
        "expired": stats["expired"],
        "bit_identical": True,
    }


def run_fleet_phase(
    model_root: str,
    probes: dict,
    expected: dict,
    *,
    n_shards: int,
    n_requests: int,
    n_clients: int,
    rebalance: bool = False,
) -> dict:
    """Drive one fleet configuration and return its measurements.

    Caching is off and admission is lenient: the phase measures raw
    multi-process capacity (shedding behaviour has its own tests).
    With ``rebalance=True`` a shard join + leave is scripted while the
    clients hammer — every request must still answer 200.
    """
    from repro.serving import ServingConfig
    from repro.serving.fleet import AdmissionConfig, FleetHandle
    from repro.serving.protocol import predict_request

    # n_samples triggers the full distribution reconstruction on the
    # shard (~10x the predict_vector cost, ~1 KB extra on the wire), so
    # the phase measures shard compute scaling, not router framing.
    payloads = {
        bench: predict_request("bench", p, n_samples=100, sample_seed=11)
        for bench, p in probes.items()
    }
    benches = sorted(payloads)
    schedule = [benches[i % len(benches)] for i in range(n_requests)]
    work = [schedule[i::n_clients] for i in range(n_clients)]
    latencies: list[list[float]] = [[] for _ in range(n_clients)]
    statuses: list[list[int]] = [[] for _ in range(n_clients)]
    mismatches: list[str] = []
    failures: list[str] = []

    serving_config = ServingConfig(cache_enabled=False)
    lenient = AdmissionConfig(min_samples=1_000_000)
    with FleetHandle(
        model_root,
        n_shards,
        serving_config=serving_config,
        admission_config=lenient,
        hot_window=256,
        hot_threshold=2,
    ) as handle:

        def client_loop(slot: int) -> None:
            try:
                with handle.client(timeout_s=120.0) as client:
                    for bench in work[slot]:
                        t0 = time.perf_counter()
                        reply = client.request(payloads[bench])
                        latencies[slot].append(time.perf_counter() - t0)
                        statuses[slot].append(reply.get("status", 0))
                        if reply.get("status") != 200:
                            failures.append(f"{bench}: {reply}")
                        elif not np.array_equal(
                            np.asarray(reply["vector"], dtype=np.float64),
                            expected[bench],
                        ):
                            mismatches.append(bench)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                failures.append(f"client {slot}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=client_loop, args=(slot,))
            for slot in range(n_clients)
        ]
        wall0 = time.perf_counter()
        for t in threads:
            t.start()
        if rebalance:
            time.sleep(0.2)  # let load build before reshaping the fleet
            joined = handle.add_shard()
            removed = handle.shard_ids[0]
            handle.remove_shard(removed)
        for t in threads:
            t.join()
        wall = time.perf_counter() - wall0

        info = handle.info()
        samples = np.asarray(handle.latency_samples(), dtype=np.float64)

    if failures:
        raise RuntimeError(f"fleet failures ({len(failures)}): {failures[:5]}")
    if mismatches:
        raise RuntimeError(
            f"fleet vectors diverged from direct predictions: {sorted(set(mismatches))}"
        )

    answered = [s for per_client in statuses for s in per_client]
    per_shard = {}
    for sid, health in sorted(info["health"].items()):
        per_shard[sid] = {
            "requests": health["stats"]["requests"],
            "rho": health["admission"]["rho"],
            "cs2": health["admission"]["cs2"],
            "shed": health["admission"]["shed"],
        }
    if samples.size:  # per-shard-ordinal latency breakdown from router samples
        for ord_ in sorted(set(samples[:, 2].astype(int))):
            sel = samples[samples[:, 2] == ord_, 0]
            per_shard.setdefault(f"ord-{ord_}", {})["latency"] = _percentiles_ms(
                list(sel)
            )

    flat = [x for per_client in latencies for x in per_client]
    report = {
        "n_shards": n_shards,
        "n_requests": n_requests,
        "n_clients": n_clients,
        "wall_s": wall,
        "throughput_rps": n_requests / wall,
        "latency": _percentiles_ms(flat),
        "answered": len(answered),
        "answered_200": answered.count(200),
        "dropped": n_requests - len(answered),
        "per_shard": per_shard,
        "router": info["router"],
        "map_version": info["map"]["version"],
        "bit_identical": True,
    }
    if rebalance:
        report["scripted"] = {"joined": joined, "removed": removed}
    else:
        report["latency_samples"] = samples.tolist()
    return report


def _effective_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_fleet_feedback(samples_list: list) -> dict:
    """UC1 feedback figure: predict fleet p99 from router latency samples."""
    from repro.serving.fleet import predict_fleet_p99

    samples = np.asarray(samples_list, dtype=np.float64)
    return predict_fleet_p99(samples, n_segments=4, n_probe_runs=8)


def main(argv=None) -> int:
    """Fit, serve, drive, verify, and write the benchmark JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=600)
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--n-runs", type=int, default=60)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    from repro.core.predictors import FewRunsPredictor
    from repro.serving import ModelRegistry
    from repro.simbench import measure_all

    print(f"fitting model on {len(ROSTER)} campaigns x {args.n_runs} runs ...")
    campaigns = measure_all("intel", benchmarks=ROSTER, n_runs=args.n_runs, n_workers=1)
    predictor = FewRunsPredictor(n_probe_runs=6, n_replicas=2).fit(campaigns)
    probes = {bench: campaigns[bench].subset(range(6)) for bench in ROSTER}
    expected = {bench: predictor.predict_vector(p) for bench, p in probes.items()}

    phases = {}
    fleet = {}
    with tempfile.TemporaryDirectory() as model_root:
        registry = ModelRegistry(model_root)
        registry.save(predictor, name="bench")
        for label, cache_enabled in (("cache_on", True), ("cache_off", False)):
            print(f"phase {label}: {args.requests} requests / {args.clients} clients ...")
            phases[label] = run_phase(
                registry,
                probes,
                expected,
                cache_enabled=cache_enabled,
                n_requests=args.requests,
                n_clients=args.clients,
            )
            print(
                f"  {phases[label]['throughput_rps']:.0f} req/s, "
                f"p95 {phases[label]['latency']['p95_ms']:.2f} ms, "
                f"hit rate {phases[label]['cache_hit_rate']:.2f}"
            )

        for label, n_shards in (("single_shard", 1), ("two_shard", 2)):
            print(f"fleet {label}: {args.requests} requests / {args.clients} clients ...")
            fleet[label] = run_fleet_phase(
                model_root,
                probes,
                expected,
                n_shards=n_shards,
                n_requests=args.requests,
                n_clients=args.clients,
            )
            print(
                f"  {fleet[label]['throughput_rps']:.0f} req/s, "
                f"p95 {fleet[label]['latency']['p95_ms']:.2f} ms"
            )

        print("fleet rebalance: scripted join + leave under load ...")
        fleet["rebalance"] = run_fleet_phase(
            model_root,
            probes,
            expected,
            n_shards=2,
            n_requests=args.requests,
            n_clients=args.clients,
            rebalance=True,
        )
        print(
            f"  {fleet['rebalance']['answered_200']}/{fleet['rebalance']['n_requests']}"
            " answered 200, 0 dropped"
        )

    cores = _effective_cores()
    speedup = fleet["two_shard"]["throughput_rps"] / fleet["single_shard"]["throughput_rps"]
    fleet["two_shard"]["speedup_vs_single_shard"] = speedup
    fleet["cores"] = cores
    fleet["speedup_enforced"] = cores >= 2
    feedback = run_fleet_feedback(fleet["two_shard"].pop("latency_samples"))
    fleet["single_shard"].pop("latency_samples", None)
    fleet["feedback"] = feedback
    print(
        f"fleet speedup {speedup:.2f}x; predicted p99 "
        f"{feedback['p99_predicted_s'] * 1e3:.2f} ms vs measured "
        f"{feedback['p99_measured_s'] * 1e3:.2f} ms"
    )

    report = {
        "schema": "repro.bench_serving",
        "version": 2,
        "model": "FewRunsPredictor(knn, pearsonrnd)",
        "grid": {"benchmarks": list(ROSTER), "n_runs": args.n_runs, "n_probe_runs": 6},
        "phases": phases,
        "fleet": fleet,
        "bit_identical_cache_on_and_off": True,
        "bit_identical_through_fleet": True,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    status = 0
    floor = 200.0
    slowest = min(p["throughput_rps"] for p in phases.values())
    if slowest < floor:
        print(f"WARNING: throughput {slowest:.0f} req/s below the {floor:.0f} req/s target")
        status = 1
    if cores < 2:
        print(
            f"NOTE: {cores} usable core(s) — two shard processes time-slice the "
            "same CPU, so the 1.5x scaling gate is informational only here"
        )
    elif speedup < 1.5:
        print(f"WARNING: 2-shard fleet speedup {speedup:.2f}x below the 1.5x target")
        status = 1
    dropped = fleet["rebalance"]["dropped"]
    non_200 = fleet["rebalance"]["answered"] - fleet["rebalance"]["answered_200"]
    if dropped or non_200:
        print(f"WARNING: rebalance dropped {dropped} / non-200 {non_200} responses")
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())

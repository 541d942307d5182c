"""The repository benchmark: two evaluation grids and two serving loads.

Usage (from the repository root)::

    python3 bench/run.py                                  # all workloads
    python3 bench/run.py --workload serve_direct --seed 3 --seconds 20
    python3 bench/run.py --workload uc1_exact_serial --trace 1
    python3 bench/run.py --out bench/_work/a.json         # keep the record

Each workload runs in a fresh ``workload.py`` subprocess.  Every metric is
printed by name with its unit; with ``--trace 0`` (the default) they are
the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the last workload
run.  The exit code is 1 when any output was wrong and 2 when a
workload could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from common import (
    BENCH,
    DEFAULT_SEED,
    ROOT,
    SRC,
    WORK,
    child_env,
    env_info,
    fresh_dir,
    load_spec,
    end_group,
)

#: A run must end within this many seconds, set-up and checks included.
RUN_LIMIT_S = 175.0


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a fresh process group; returns its result dict."""
    work = fresh_dir(WORK, f"{workload}-{os.getpid()}")
    result_path = work / "result.json"
    log_path = work / "workload.log"
    cmd = [
        sys.executable, "-u", str(BENCH / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work", str(work), "--result", str(result_path),
    ]
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        end_group(proc, grace_s=RUN_LIMIT_S)
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(errors="replace").splitlines()[-30:]
        raise RuntimeError(
            f"{workload} failed (exit {proc.returncode}); log {log_path}:\n"
            + "\n".join(tail)
        )
    result = json.loads(result_path.read_text())
    shutil.rmtree(work, ignore_errors=True)
    return result


def result_line(result: dict, spec_metrics: list[dict]) -> dict:
    """The result as the one-line JSON object, metrics in spec order."""
    emitted = result["metrics"]
    unknown = set(emitted) - {m["name"] for m in spec_metrics}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": float(emitted.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec_metrics
        },
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED} reproduces the anchors)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics instead of end-to-end")
    parser.add_argument("--out", help="also write the full record (JSON) here")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2

    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = {"env": env_info(), "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "runs": []}
    lines, status = [], 0
    for workload in args.workload or names:
        t0 = time.perf_counter()
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
            line = result_line(result, spec_metrics)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        wall = time.perf_counter() - t0
        for name, entry in line["metrics"].items():
            print(f"{workload:<17} {name:<38} {entry['value']:>14.6g} {entry['unit']}")
        for name, value in sorted(result["diagnostics"].items()):
            print(f"{workload:<17} [diag] {name:<31} {json.dumps(value)}")
        print(f"{workload:<17} attempted={line['attempted']} failed={line['failed']} "
              f"correct={line['correct']} wall={wall:.1f}s")
        if not line["correct"]:
            status = 1
        record["runs"].append({"workload": workload, "wall_s": wall, **line,
                               "diagnostics": result["diagnostics"]})
        lines.append(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    for line in lines:
        print(json.dumps(line))
    return status


if __name__ == "__main__":
    sys.exit(main())

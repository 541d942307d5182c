"""Shared helpers for the benchmark: paths, statistics, process memory."""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch space of running benchmarks (listed in bench/.gitignore).
WORK = BENCH / "_work"

#: The Fig. 4 / Fig. 7 grids at the scale the checksum anchors were taken.
N_BENCHMARKS = 16
N_RUNS = 300
#: ``--seed`` default: the campaigns' root seed behind both anchors.
DEFAULT_SEED = 777


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def child_env() -> dict:
    """Environment for processes under test.

    ``src`` goes on ``PYTHONPATH``; every ``REPRO_*`` knob is dropped so a
    developer's shell (worker counts, shm off, trace files) cannot change
    what is measured.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def fresh_dir(parent: Path, tag: str) -> Path:
    """An empty directory ``parent/tag``."""
    path = parent / tag
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def end_group(proc, grace_s: float) -> None:
    """Wait for session leader *proc* and every process of its group to end.

    The leader gets *grace_s* seconds, what it leaves behind 5 more; then
    the group is SIGKILLed (again each second).  The leader is reaped
    here; the others are watched through ``/proc`` until none is running.
    """
    deadline = time.monotonic() + grace_s
    while True:
        if proc.poll() is not None:
            if not _group_running(proc.pid):
                return
            deadline = min(deadline, time.monotonic() + 5.0)
        if time.monotonic() >= deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + 1.0
        time.sleep(0.05)


def _proc_table() -> list[tuple[int, str, int, int]]:
    """(pid, state, ppid, pgid) of every process, from ``/proc/*/stat``."""
    rows = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name is parenthesised and may hold spaces.
        state, ppid, pgid = stat.rsplit(")", 1)[1].split()[:3]
        rows.append((int(entry), state, int(ppid), int(pgid)))
    return rows


def _group_running(pgid: int) -> bool:
    return any(g == pgid and state != "Z" for _pid, state, _ppid, g in _proc_table())


def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-th percentile (numpy's default method)."""
    import numpy as np

    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    """Median (0.0 for an empty list)."""
    return percentile(values, 50)


def proc_rss_hwm_kb(pid: int) -> int:
    """Peak resident set size (VmHWM) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> list[int]:
    """Live descendant pids of *pid*."""
    children: dict[int, list[int]] = {}
    for child, _state, ppid, _pgid in _proc_table():
        children.setdefault(ppid, []).append(child)
    out, stack = [], [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            out.append(child)
            stack.append(child)
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Summed VmHWM of *pid* and all its live descendants, in MB."""
    total_kb = sum(proc_rss_hwm_kb(p) for p in [pid, *descendants(pid)])
    return total_kb * 1024 / 1e6


def env_info() -> dict:
    """Interpreter, library and machine facts stored with every record."""
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "executable": Path(sys.executable).name,
    }

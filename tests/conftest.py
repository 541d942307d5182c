"""Shared fixtures: small deterministic campaigns for fast tests.

The full paper-scale study (60 benchmarks x 1000 runs) runs in
``benchmarks/``; unit and integration tests use a reduced roster measured
once per session.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.simbench import benchmark_names, measure_all

#: Reduced roster mixing suites and variability archetypes.
SMALL_ROSTER = (
    "npb/bt",
    "npb/cg",
    "npb/is",
    "parsec/streamcluster",
    "parsec/canneal",
    "spec_omp/376",
    "spec_omp/358",
    "spec_accel/303",
    "spec_accel/359",
    "parboil/sgemm",
    "rodinia/heartwall",
    "mllib/correlation",
)


@pytest.fixture(scope="session")
def intel_campaigns():
    """12 benchmarks x 300 runs on the Intel-like system."""
    return measure_all("intel", benchmarks=SMALL_ROSTER, n_runs=300, n_workers=1)


@pytest.fixture(scope="session")
def amd_campaigns():
    """12 benchmarks x 300 runs on the AMD-like system."""
    return measure_all("amd", benchmarks=SMALL_ROSTER, n_runs=300, n_workers=1)


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def all_benchmark_names():
    return benchmark_names()


def _stat(pid: int) -> tuple[str, int] | None:
    """``(state, ppid)`` of *pid* from ``/proc/<pid>/stat``; None once gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def is_running(pid: int) -> bool:
    """Whether *pid* exists and is not a zombie."""
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def live_children(pid: int | None = None) -> set[int]:
    """Running (not zombie) children of *pid* (default: this process).

    Read from ``/proc``, so it sees every child: plain subprocesses as
    well as ``multiprocessing`` ones and its resource tracker.
    """
    pid = os.getpid() if pid is None else pid
    children = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None and stat[1] == pid and stat[0] != "Z":
                children.add(int(entry))
    return children

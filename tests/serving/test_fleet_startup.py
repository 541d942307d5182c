"""Fleet start-up and teardown: concurrent spawn, a failed handshake, a
warm shard, a lean router, and shards that outlive no parent.

* ``FleetHandle`` spawns every shard before it awaits any handshake, and
  still joins them in shard-id order;
* a shard that fails its handshake fails the constructor with
  ``ProcessStartupError`` and leaves no process or router thread behind;
* a shard preloads no ``scipy`` subpackage: none is loaded at its
  handshake, and sampling a pearsonrnd model loads none either;
* the fleet CLI process, which hosts the router, loads no numpy, and
  its only children are its shards (no ``multiprocessing`` resource
  tracker);
* a shard drains and exits when its parent dies, even by SIGKILL.

Shard targets are module-level because the launcher pickles them by
reference.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.parallel.procs import ProcessStartupError, SpawnedProcess
from repro.serving import ModelRegistry, ServingClient
from repro.serving.fleet import AdmissionConfig, FleetHandle
from repro.serving.fleet import handle as handle_mod
from repro.serving.fleet.shard import run_shard
from repro.serving.protocol import predict_request

from ..conftest import is_running, live_children

SRC = Path(__file__).resolve().parents[2] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

#: Admission that never sheds.
LENIENT = AdmissionConfig(min_samples=1_000_000)

#: Every ``repro`` module the fleet CLI process (the router) loads from
#: start-up on a stored model, through a sampling ``predict``,
#: ``models``, ``stats`` and a ``fleet`` op with samples, to shutdown.
#: None of them imports numpy.
ROUTER_MODULES = [
    "repro",
    "repro._lazy",
    "repro.errors",
    "repro.obs",
    "repro.obs.registry",
    "repro.obs.summary",
    "repro.obs.trace_io",
    "repro.obs.tracing",
    "repro.parallel",
    "repro.parallel.procs",
    "repro.serving",
    "repro.serving.artifacts",
    "repro.serving.config",
    "repro.serving.fleet",
    "repro.serving.fleet.handle",
    "repro.serving.fleet.messages",
    "repro.serving.fleet.partition",
    "repro.serving.fleet.router",
    "repro.serving.fleet.shard",
    "repro.serving.registry",
    "repro.serving.replies",
    "repro.serving.serialization",
    "repro.serving.server",
]

#: A process hosting a 2-shard fleet until its stdin closes; it prints
#: its pid and its shards' pids once the fleet is up.
FLEET_HOST = """
import json, os, sys
from repro.serving.fleet import AdmissionConfig, FleetHandle

fleet = FleetHandle(sys.argv[1], 2, admission_config=AdmissionConfig(min_samples=10**6))
shards = [fleet._procs[shard_id].pid for shard_id in fleet.shard_ids]
print(json.dumps({"pid": os.getpid(), "shards": shards}), flush=True)
sys.stdin.read()
fleet.close()
"""


def shard_1_dies(conn, shard_id, *args):
    """Stands in for ``run_shard``: shard-1 exits before its handshake."""
    if shard_id == "shard-1":
        sys.exit(3)
    run_shard(conn, shard_id, *args)


@pytest.fixture(scope="module")
def store_root(tmp_path_factory, few_runs_predictor):
    root = tmp_path_factory.mktemp("fleet-startup")
    ModelRegistry(root).save(few_runs_predictor, name="uc1")
    return str(root)


def test_all_shards_spawn_before_the_first_handshake_wait(store_root, monkeypatch):
    events: list[tuple[str, str]] = []

    class Spy(SpawnedProcess):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            events.append(("spawn", self.name))

        def wait_ready(self):
            events.append(("wait", self.name))
            return super().wait_ready()

    monkeypatch.setattr(handle_mod, "SpawnedProcess", Spy)
    with FleetHandle(store_root, 3, admission_config=LENIENT) as fleet:
        shard_map = fleet.info()["map"]
        with fleet.client() as client:
            assert client.request({"op": "ping"})["status"] == 200
    names = ["repro-shard-0", "repro-shard-1", "repro-shard-2"]
    assert events == [("spawn", n) for n in names] + [("wait", n) for n in names]
    # Joined in shard-id order: one map version per join, as before.
    assert shard_map["version"] == 3
    assert shard_map["shards"] == ["shard-0", "shard-1", "shard-2"]


def test_failed_handshake_stops_every_shard_and_the_router(store_root, monkeypatch):
    monkeypatch.setattr(handle_mod, "run_shard", shard_1_dies)
    threads_before = set(threading.enumerate())
    children_before = live_children()
    # shard-0 joins, shard-1 dies, shard-2 is spawned but never joined.
    with pytest.raises(ProcessStartupError, match="repro-shard-1"):
        FleetHandle(store_root, 3, admission_config=LENIENT)
    assert live_children() == children_before
    leaked = [
        t for t in threading.enumerate()
        if t not in threads_before and t.name == "repro-fleet-router"
    ]
    assert leaked == []


def test_shard_loads_no_scipy_subpackage_to_sample(store_root, intel_small):
    """A fresh-interpreter shard reports ready with none of
    ``scipy.special``, ``scipy.stats`` and ``scipy.optimize`` loaded, and
    answering a pearsonrnd sampling request loads none of them."""
    request = predict_request(
        "uc1", intel_small["npb/cg"].subset(range(6)), n_samples=100
    )
    script = textwrap.dedent(
        f"""
        import json, os, sys, threading
        from repro.serving import ServingClient, ServingConfig
        from repro.serving.fleet import AdmissionConfig
        from repro.serving.fleet.shard import run_shard

        seen = {{}}

        def loaded():
            names = ("scipy.special", "scipy.stats", "scipy.optimize")
            return [name for name in names if name in sys.modules]

        def sample_then_drain(port):
            with ServingClient("127.0.0.1", port, timeout_s=30.0) as client:
                reply = client.request(json.loads({json.dumps(request)!r}))
                seen["reply"] = [reply["status"], reply.get("representation"),
                                 "samples" in reply]
                seen["after_sampling"] = loaded()
                client.request({{"op": "drain"}})

        class Handshake:
            def send(self, payload):
                seen["at_handshake"] = loaded()
                threading.Thread(target=sample_then_drain,
                                 args=(payload["port"],)).start()

            def close(self):
                pass

        # A shard's stdin is its parent's liveness pipe: hold one open.
        liveness, _writer = os.pipe()
        os.dup2(liveness, 0)
        assert loaded() == []
        run_shard(Handshake(), "shard-x", {store_root!r}, ServingConfig(),
                  AdmissionConfig())
        print(json.dumps(seen))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        "at_handshake": [],
        "reply": [200, "PearsonRndRepresentation", True],
        "after_sampling": [],
    }


def _reap(proc: subprocess.Popen) -> None:
    """Wait for *proc* to exit; kill it if it has not after 60 s."""
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def test_fleet_cli_router_loads_no_numpy(store_root, intel_small, tmp_path):
    """After every op a client can send the router, the real fleet CLI
    maps no numpy extension module, has its one shard as its only child,
    and has loaded exactly :data:`ROUTER_MODULES` of the package (read
    from the ``-v`` log, which names every module the process loads)."""
    log = tmp_path / "verbose.log"
    with open(log, "w") as stderr:
        cli = subprocess.Popen(
            [sys.executable, "-u", "-v", "-m", "repro.serving", "fleet",
             "--root", store_root, "--tag", "uc1", "--n-shards", "1"],
            env=ENV, stdout=subprocess.PIPE, stderr=stderr, text=True,
        )
    try:
        port = int(re.search(r"127\.0\.0\.1:(\d+)", cli.stdout.readline()).group(1))
        probe = intel_small["npb/cg"].subset(range(6))
        with ServingClient("127.0.0.1", port) as client:
            replies = [
                client.request(predict_request("uc1", probe, n_samples=100)),
                client.request({"op": "models"}),
                client.request({"op": "stats"}),
                client.request({"op": "fleet", "samples": True}),
            ]
        maps = Path(f"/proc/{cli.pid}/maps").read_text()
        children = live_children(cli.pid)
    finally:
        cli.send_signal(signal.SIGINT)  # the operator's Ctrl-C: drain, exit 0
        _reap(cli)
        cli.stdout.close()
    assert [reply["status"] for reply in replies] == [200] * 4, replies
    assert "samples" in replies[0]
    assert replies[3]["latency_samples_shape"] == [1, 3]
    assert "numpy" not in maps
    assert len(children) == 1, children
    assert cli.returncode == 0
    loaded = re.findall(r"^import '([\w.]+)'", log.read_text(), flags=re.MULTILINE)
    assert "numpy" not in loaded
    assert sorted(m for m in loaded if m.split(".")[0] == "repro") == ROUTER_MODULES


@pytest.fixture()
def fleet_host(store_root):
    """A subprocess hosting a 2-shard fleet: ``(process, its pid, shard pids)``."""
    host = subprocess.Popen(
        [sys.executable, "-c", FLEET_HOST, store_root],
        env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        started = json.loads(host.stdout.readline())
        yield host, started["pid"], started["shards"]
    finally:
        host.stdin.close()  # a live host closes its fleet and exits
        _reap(host)
        host.stdout.close()


def test_fleet_host_has_only_its_shards_as_children(fleet_host):
    _, host_pid, shards = fleet_host
    assert len(shards) == 2
    assert live_children(host_pid) == set(shards)


def test_shards_exit_when_their_host_is_killed(fleet_host):
    """SIGKILL leaves the shards no drain op; EOF on stdin drains them."""
    host, _, shards = fleet_host
    host.kill()
    host.wait()
    deadline = time.monotonic() + 10.0
    while any(map(is_running, shards)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(is_running, shards))

"""Fleet start-up: concurrent spawn, a failed handshake, a warm shard.

* ``FleetHandle`` spawns every shard before it awaits any handshake, and
  still joins them in shard-id order;
* a shard that fails its handshake fails the constructor with
  ``ProcessStartupError`` and leaves no process or router thread behind;
* a shard has loaded the sampler stack (``scipy.special``) before it
  reports ready, so no request behind its admission gate pays that
  import, and sampling loads neither ``scipy.stats`` nor
  ``scipy.optimize``.

Shard targets are module-level because ``spawn`` pickles them.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.parallel.procs import ProcessStartupError, SpawnedProcess
from repro.serving import ModelRegistry
from repro.serving.fleet import AdmissionConfig, FleetHandle
from repro.serving.fleet import handle as handle_mod
from repro.serving.fleet.shard import run_shard
from repro.serving.protocol import predict_request

SRC = Path(__file__).resolve().parents[2] / "src"

#: Admission that never sheds.
LENIENT = AdmissionConfig(min_samples=1_000_000)


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
    # shard-0 joins, shard-1 dies, shard-2 is spawned but never joined.
    with pytest.raises(ProcessStartupError, match="repro-shard-1"):
        FleetHandle(store_root, 3, admission_config=LENIENT)
    assert multiprocessing.active_children() == []
    leaked = [
        t for t in threading.enumerate()
        if t not in threads_before and t.name == "repro-fleet-router"
    ]
    assert leaked == []


def test_shard_loads_the_sampler_stack_before_its_handshake(store_root, intel_small):
    """A fresh-interpreter shard reports ready with ``scipy.special`` loaded
    and ``scipy.stats``/``scipy.optimize`` not; sampling a pearsonrnd model
    keeps those two out."""
    request = predict_request(
        "uc1", intel_small["npb/cg"].subset(range(6)), n_samples=100
    )
    script = textwrap.dedent(
        f"""
        import json, sys, threading
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
        "at_handshake": ["scipy.special"],
        "reply": [200, "PearsonRndRepresentation", True],
        "after_sampling": ["scipy.special"],
    }

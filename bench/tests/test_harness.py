"""Tests of the benchmark harness itself (not of the program it measures).

Run with ``pytest bench/tests -q``; they take a few seconds.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
import types
from types import SimpleNamespace

import numpy as np
import pytest

import compare
import grids
import layers
import loadgen
import run
import serving
from common import load_spec
from tracer import Tracer, self_times

SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_poisson_schedule_is_fixed_by_seed():
    a = loadgen.poisson_offsets(60.0, 30.0, seed=5)
    assert a == loadgen.poisson_offsets(60.0, 30.0, seed=5)
    assert a != loadgen.poisson_offsets(60.0, 30.0, seed=6)
    assert a == sorted(a) and 0.0 < a[0] and a[-1] < 30.0
    assert 1500 < len(a) < 2100  # 60 per second for 30 s


async def _stalling_server(stall_id: str):
    """Answers at once, except that request *stall_id* blocks the loop 200 ms.

    The server shares the generator's event loop, so the stall delays both
    the generator's sends (lateness) and every answer due meanwhile.
    """

    async def handle(reader, writer):
        while line := await reader.readline():
            rid = json.loads(line)["id"]
            if rid == stall_id:
                time.sleep(0.2)
            writer.write(json.dumps({"status": 200, "id": rid}).encode() + b"\n")
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_stall_shows_in_due_time_latency_and_lateness():
    requests = [
        loadgen.Request(f"r{i}", json.dumps({"id": f"r{i}"}).encode() + b"\n")
        for i in range(200)
    ]
    offsets = [i * 0.005 for i in range(200)]

    async def drive():
        server = await _stalling_server("r50")
        try:
            port = server.sockets[0].getsockname()[1]
            return await loadgen.run_open("127.0.0.1", port, requests, offsets, n_conns=2)
        finally:
            server.close()
            await server.wait_closed()

    outcomes = asyncio.run(drive())
    assert [o.status for o in outcomes] == [200] * 200
    assert loadgen.lateness_ms(outcomes, 99) > 100.0
    assert loadgen.latency_ms(outcomes, 100) > 190.0
    # Due mid-stall: a short round trip, but a long wait counted from due time.
    late = outcomes[60]
    assert late.done - late.due > 0.1 > late.done - late.sent


class _Representation:
    def reconstruct(self, vector):
        return self

    def sample(self, n, rng):
        return rng.random(n)


class _Model:
    representation = _Representation()

    def predict_vector(self, probe):
        return np.array([1.0, 2.0, probe])


def test_wrong_or_missing_answers_count_as_failed():
    from repro.serving.protocol import encode_array

    traffic = SimpleNamespace(calls={})
    outcomes = []

    def answer(rid, body, n_samples=0):
        traffic.calls[rid] = serving.Call("m", 0.5, n_samples, 7)
        outcomes.append(loadgen.Outcome(rid, 0.0, 0.0, done=0.001, body=body))

    vector = [1.0, 2.0, 0.5]
    answer("ok", {"status": 200, "vector": vector})
    answer("wrong", {"status": 200, "vector": [1.0, 2.0, 0.5000000000000001]})
    answer("shed", {"status": 429, "error": "shed"})
    answer("lost", None)
    draws = encode_array(np.random.default_rng(7).random(100))
    for i in range(10):  # only every 10th samples payload is compared
        answer(f"s{i}", {"status": 200, "vector": vector,
                         "samples": draws if i < 9 else draws[::-1]}, n_samples=100)
    recon_ms = []
    assert serving.check(outcomes, traffic, {"m": _Model()}, recon_ms) == 4
    assert len(recon_ms) == 1

    measured = _measured(fleet=False)
    measured.failed = {"lo": 4}
    metrics, _ = serving.summarize(measured, trace=False)
    assert metrics["ok_rate"] == pytest.approx(1 - 4 / 80)


def _measured(fleet: bool) -> serving.Measured:
    phase = [
        loadgen.Outcome(f"x{i}", 1.0 + i / 100, 1.0 + i / 100, done=1.005 + i / 100,
                        body={"status": 200}, nbytes_out=100, nbytes_in=50)
        for i in range(20)
    ]
    stats = {"batches": 3, "batched_requests": 5, "cache_hits": 1,
             "cache_misses": 4, "rejected": 0, "expired": 0}
    info = {
        "samples": np.zeros((0, 3)),
        "router": {"forwarded": 3, "hot_hits": 1},
        "health": {"shard-0": {"stats": {"requests": 3},
                               "admission": {"shed": 0, "rho": 0.1}}},
    }
    return serving.Measured(
        fleet, [1.0, 1.2, 0.9],
        {"lo": phase, "hi": phase, "closed": phase, "lo_untraced": phase},
        {"lo": (0.0, 9.0), "hi": (0.0, 9.0)}, 1.0, stats, 100.0,
        {moment: info for moment in ("start", "lo", "hi", "end")},
    )


def test_emitted_metric_names_are_in_the_spec():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert len(e2e) <= 16 and len(per_layer) < 128

    assert set(grids.end_to_end([0.1, 0.2, 0.3], [5.0, 6.0], 18, 0)) == e2e
    layer_names = set(layers.grid_metrics([])) | {"trace.overhead_frac"}
    for fleet in (False, True):
        assert set(serving.summarize(_measured(fleet), trace=False)[0]) == e2e
        layer_names |= set(serving.summarize(_measured(fleet), trace=True)[0])
    assert layer_names == per_layer

    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"latency_ms": 1.5}}
    line = run.result_line(result, SPEC["end_to_end"])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["latency_ms"] == {"value": 1.5, "unit": "ms"}
    with pytest.raises(RuntimeError, match="not_a_metric"):
        run.result_line({**result, "metrics": {"not_a_metric": 1.0}}, SPEC["end_to_end"])


def test_tracer_nests_spans_and_restores_names():
    module = types.ModuleType("fake")

    def inner():
        time.sleep(0.01)

    def outer():
        module.inner()
        time.sleep(0.01)

    module.inner, module.outer = inner, outer

    class Base:
        def work(self):
            return module.outer()

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(Child, "work", "work")
    Child().work()
    tracer.restore()
    assert module.inner is inner and "work" not in Child.__dict__
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["inner"][4] == by_name["work"][0]
    own = self_times(tracer.spans)
    assert own["work"] == pytest.approx(0.01, abs=0.008)


@pytest.mark.parametrize("a, b, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], [10.02, 9.95, 10.1, 10.0, 9.98], "unchanged"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.2, 12.0], "worse"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [8.0, 8.1, 7.9, 8.2, 8.0], "better"),
    ([10.0, 14.0, 7.0, 12.0, 9.0], [11.0, 8.0, 13.0, 10.0, 9.5], "unresolved"),
])
def test_compare_verdicts(a, b, expected):
    assert compare.verdict(a, b, bound=0.10, better="lower") == expected

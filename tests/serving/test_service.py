"""Integration tests for the micro-batching service and TCP server.

The contract under test: serving never changes an output bit.
Concurrent clients, batched execution and the response cache must all
return exactly what a direct ``predict_vector`` call returns; capacity
problems surface as 429/504 responses and malformed fields as 400s,
never as wrong answers or as failures of other requests.  The op-level
protocol edges run against a plain server and a one-shard fleet's
router, which share one endpoint layer.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.predictors import FewRunsPredictor
from repro.core.sketch import QuantileSketch, SketchProbe
from repro.errors import ValidationError
from repro.serving import (
    ModelRegistry,
    PredictionService,
    ServerHandle,
    ServingClient,
    ServingConfig,
    serve,
)
from repro.serving.__main__ import main as serving_main
from repro.serving.fleet import AdmissionConfig, FleetHandle, FleetRouter
from repro.serving.protocol import MAX_SAMPLES, decode_array, encode_array, ok, predict_request
from repro.serving.server import _MAX_LINE_BYTES

from .conftest import ROSTER


@pytest.fixture()
def registry(tmp_path, few_runs_predictor):
    """A registry holding the small fitted predictor under tag ``uc1``."""
    reg = ModelRegistry(tmp_path)
    reg.save(few_runs_predictor, name="uc1")
    return reg


def _predict_payload(campaign, **extra) -> dict:
    payload = predict_request("uc1", campaign)
    payload.update(extra)
    return payload


def _gate_predict_vector(monkeypatch):
    """Record every ``predict_vector`` probe; the first call blocks.

    Returns ``(calls, entered, release)``: the first call sets *entered*
    and waits for *release*, which holds the batch loop busy for as long
    as a test needs to queue requests behind it.
    """
    calls: list = []
    entered, release = threading.Event(), threading.Event()
    original = FewRunsPredictor.predict_vector

    def gated(self, probe):
        calls.append(probe)
        if len(calls) == 1:
            entered.set()
            release.wait(timeout=30)
        return original(self, probe)

    monkeypatch.setattr(FewRunsPredictor, "predict_vector", gated)
    return calls, entered, release


class TestServingConfig:
    def test_rejects_bad_values(self):
        for bad in (
            dict(max_batch=0),
            dict(queue_limit=0),
            dict(cache_size=0),
            dict(default_deadline_s=0.0),
        ):
            with pytest.raises(ValidationError):
                ServingConfig(**bad)

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("ServingConfig", "batch_window_s"),
            ("ServingConfig", "plane"),
            ("ServingConfig", "n_workers"),
            ("AdmissionConfig", "servers"),
            ("AdmissionConfig", "cs2_estimator"),
            ("PredictionService", "pool"),
            ("ServerHandle", "pool"),
            ("serve", "pool"),
            ("serve", "inflight"),
            ("serve", "extra_ops"),
            ("FleetHandle", "n_replicas"),
            ("FleetRouter", "n_replicas"),
        ],
    )
    def test_removed_names_raise_type_error(self, registry, owner, name):
        """Names removed in 4.0.0 and 5.0.0 fail loudly, never as a silent no-op."""
        build = {
            "ServingConfig": ServingConfig,
            "AdmissionConfig": AdmissionConfig,
            "PredictionService": lambda **kw: PredictionService(registry, **kw),
            "ServerHandle": lambda **kw: ServerHandle(registry, **kw),
            "serve": lambda **kw: serve(registry, **kw),
            "FleetHandle": lambda **kw: FleetHandle(registry.root, 1, **kw),
            "FleetRouter": lambda **kw: FleetRouter(registry.root, **kw),
        }[owner]
        with pytest.raises(TypeError, match=name):
            build(**{name: None})

    @pytest.mark.parametrize("flag", ["--knee", "--rho-max", "--n-replicas"])
    def test_removed_fleet_flags_are_rejected(self, flag, capsys):
        """``fleet`` flags removed in 5.0.0 are argparse errors, not no-ops."""
        with pytest.raises(SystemExit) as exit_info:
            serving_main(["fleet", flag, "2"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestServedBitIdentity:
    def test_concurrent_clients_match_direct_calls(
        self, registry, few_runs_predictor, intel_small
    ):
        """Many clients, interleaved requests, every byte identical."""
        probes = {b: intel_small[b].subset(range(6)) for b in ROSTER}
        expected = {b: few_runs_predictor.predict_vector(p) for b, p in probes.items()}
        results: dict[tuple[str, int], np.ndarray] = {}
        errors: list[BaseException] = []

        with ServerHandle(registry, ServingConfig(cache_enabled=False)) as server:

            def worker(bench: str, slot: int) -> None:
                try:
                    with ServingClient("127.0.0.1", server.port) as client:
                        for i in range(3):
                            reply = client.request(_predict_payload(probes[bench]))
                            assert reply["status"] == 200, reply
                            results[(bench, slot * 10 + i)] = np.asarray(
                                reply["vector"], dtype=np.float64
                            )
                except BaseException as exc:  # noqa: BLE001 — collected below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(bench, slot))
                for slot in range(3)
                for bench in ROSTER
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert not errors, errors
        assert len(results) == 3 * 3 * len(ROSTER)
        for (bench, _), vector in sorted(results.items()):
            assert np.array_equal(vector, expected[bench]), bench

    def test_requests_queued_behind_a_busy_batch_form_fifo_batches(
        self, registry, few_runs_predictor, intel_small, monkeypatch
    ):
        """Work-conserving batching, deterministically.

        The first request runs alone; the ``max_batch + 2`` requests
        queued while it computes run as one full batch and one of the
        rest, in arrival order, each answer bit-identical.
        """
        max_batch = 4
        probes = [
            intel_small[ROSTER[i % len(ROSTER)]].subset(range(3 + i))
            for i in range(max_batch + 3)
        ]
        expected = [few_runs_predictor.predict_vector(p) for p in probes]
        calls, entered, release = _gate_predict_vector(monkeypatch)

        async def scenario():
            config = ServingConfig(max_batch=max_batch, cache_enabled=False)
            service = PredictionService(registry, config)
            await service.start()
            try:
                submits = [asyncio.ensure_future(service.submit(_predict_payload(probes[0])))]
                assert await asyncio.to_thread(entered.wait, 30)
                submits += [
                    asyncio.ensure_future(service.submit(_predict_payload(p)))
                    for p in probes[1:]
                ]
                await asyncio.sleep(0)  # every submit enqueues, none executes
                assert service.stats()["pending"] == len(probes)
                release.set()
                replies = await asyncio.gather(*submits)
            finally:
                release.set()
                await service.close()
            return replies, service.stats()

        replies, stats = asyncio.run(scenario())
        assert stats["batch_size_histogram"] == {"1": 1, str(max_batch): 1, "2": 1}
        assert [c.campaign.n_runs for c in calls] == [p.n_runs for p in probes]
        for reply, want in zip(replies, expected):
            assert reply["status"] == 200, reply
            assert np.array_equal(np.asarray(reply["vector"], dtype=np.float64), want)

    def test_cache_hits_never_change_outputs(self, registry, intel_small):
        probe = intel_small["npb/cg"].subset(range(6))
        with ServerHandle(registry, ServingConfig(cache_enabled=True)) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                first = client.request(_predict_payload(probe, n_samples=40, sample_seed=9))
                second = client.request(_predict_payload(probe, n_samples=40, sample_seed=9))
        assert first["status"] == second["status"] == 200
        assert first["cached"] is False and second["cached"] is True
        assert first["vector"] == second["vector"]
        assert np.array_equal(
            decode_array(first["samples"]), decode_array(second["samples"])
        )

    def test_cache_on_and_off_serve_identical_vectors(self, registry, intel_small):
        probe = intel_small["npb/is"].subset(range(6))
        replies = {}
        for flag in (True, False):
            with ServerHandle(registry, ServingConfig(cache_enabled=flag)) as server:
                with ServingClient("127.0.0.1", server.port) as client:
                    replies[flag] = client.request(_predict_payload(probe))
        assert replies[True]["vector"] == replies[False]["vector"]


class TestAdmissionAndDeadlines:
    def _flood(self, registry, config, n_requests, probes, *, deadline_s=None):
        """Run *n_requests* concurrent submits while the executor is wedged.

        Blocking the single executor thread freezes batch execution, so
        queued requests stay pending and admission control is exercised
        deterministically.
        """

        async def scenario():
            service = PredictionService(registry, config)
            await service.start()
            release = threading.Event()
            service._executor.submit(release.wait)  # wedge the worker thread
            payloads = []
            for i in range(n_requests):
                body = predict_request("uc1", probes[i % len(probes)])
                if deadline_s is not None:
                    body["deadline_s"] = deadline_s
                payloads.append(body)
            # Admission decisions happen synchronously at submit time, so
            # releasing the wedge shortly after cannot change the counts —
            # it only lets the accepted requests complete.
            asyncio.get_running_loop().call_later(0.3, release.set)
            try:
                replies = await asyncio.gather(
                    *(service.submit(p) for p in payloads)
                )
            finally:
                release.set()
                await service.close()
            return replies, service.stats()

        return asyncio.run(scenario())

    def test_backpressure_rejects_beyond_queue_limit(self, registry, intel_small):
        probes = [intel_small[b].subset(range(6)) for b in ROSTER]
        config = ServingConfig(queue_limit=4, cache_enabled=False, default_deadline_s=30.0)
        replies, stats = self._flood(registry, config, 10, probes)
        statuses = sorted(r["status"] for r in replies)
        assert statuses.count(429) == 6, statuses
        assert statuses.count(200) == 4, statuses
        assert stats["rejected"] == 6

    def test_deadline_expiry_returns_504(self, registry, intel_small):
        probes = [intel_small["npb/cg"].subset(range(6))]
        config = ServingConfig(queue_limit=4, cache_enabled=False)
        replies, stats = self._flood(registry, config, 1, probes, deadline_s=0.05)
        assert replies[0]["status"] == 504
        assert stats["expired"] == 1

    def test_expired_request_is_never_computed(self, registry, intel_small, monkeypatch):
        """A request answered 504 while queued is dropped, not computed."""
        calls, entered, release = _gate_predict_vector(monkeypatch)
        probes = [intel_small[b].subset(range(6)) for b in ("npb/cg", "npb/is")]

        async def scenario():
            service = PredictionService(registry, ServingConfig(cache_enabled=False))
            await service.start()
            try:
                first = asyncio.ensure_future(service.submit(_predict_payload(probes[0])))
                assert await asyncio.to_thread(entered.wait, 30)
                late = await service.submit(_predict_payload(probes[1], deadline_s=0.05))
                release.set()
                replies = [await first, late]
            finally:
                release.set()
                await service.close()
            return replies, service.stats()

        (first, late), stats = asyncio.run(scenario())
        assert (first["status"], late["status"]) == (200, 504)
        assert len(calls) == 1
        assert stats["batched_requests"] == 1
        assert stats["expired"] == 1

    def test_request_expiring_mid_batch_is_skipped(
        self, registry, intel_small, monkeypatch
    ):
        """A batch-mate that expires while the batch computes is skipped."""
        calls, entered, release = _gate_predict_vector(monkeypatch)
        probes = [intel_small[b].subset(range(6)) for b in ("npb/cg", "npb/is")]

        async def scenario():
            service = PredictionService(registry, ServingConfig(cache_enabled=False))
            await service.start()
            try:
                # Both enqueue in one loop turn, so they share one batch.
                slow = asyncio.ensure_future(service.submit(_predict_payload(probes[0])))
                late = asyncio.ensure_future(
                    service.submit(_predict_payload(probes[1], deadline_s=0.05))
                )
                assert await asyncio.to_thread(entered.wait, 30)
                late_reply = await late
                release.set()
                replies = [await slow, late_reply]
            finally:
                release.set()
                await service.close()
            return replies, service.stats()

        (slow, late), stats = asyncio.run(scenario())
        assert (slow["status"], late["status"]) == (200, 504)
        assert stats["batch_size_histogram"] == {"2": 1}
        assert len(calls) == 1

    def test_failed_batch_answers_one_dict_per_request(
        self, registry, intel_small, monkeypatch
    ):
        """Each request of a failed group gets its own 500 body.

        The connection layer writes each request's id into its response;
        a body shared across the group would carry the last writer's id.
        """

        def boom(self, probe):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(FewRunsPredictor, "predict_vector", boom)
        probes = [intel_small[b].subset(range(6)) for b in ("npb/cg", "npb/is")]

        async def scenario():
            service = PredictionService(registry, ServingConfig(cache_enabled=False))
            await service.start()
            try:
                replies = await asyncio.gather(
                    *(service.submit(_predict_payload(p)) for p in probes)
                )
            finally:
                await service.close()
            return replies, service.stats()

        (a, b), stats = asyncio.run(scenario())
        assert stats["batch_size_histogram"] == {"2": 1}
        assert a["status"] == b["status"] == 500
        assert "kernel exploded" in a["error"]
        assert a is not b
        a["id"], b["id"] = "req-a", "req-b"
        assert (a["id"], b["id"]) == ("req-a", "req-b")

    def test_rejection_does_not_poison_later_requests(self, registry, intel_small):
        """After a flood, a healthy request still succeeds on a new service."""
        probe = intel_small["npb/cg"].subset(range(6))
        config = ServingConfig(queue_limit=1, cache_enabled=False)
        with ServerHandle(registry, config) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                reply = client.request(_predict_payload(probe))
        assert reply["status"] == 200


@pytest.fixture(params=["server", "fleet"])
def endpoint_port(request, registry):
    """Port of a plain server, or of a one-shard fleet's router, serving ``uc1``."""
    if request.param == "server":
        handle = ServerHandle(registry)
    else:
        handle = FleetHandle(registry.root, 1)
    with handle:
        yield handle.port


class TestProtocolEdges:
    def test_unknown_model_is_404(self, registry, intel_small):
        probe = intel_small["npb/cg"].subset(range(6))
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                reply = client.request(predict_request("ghost", probe))
        assert reply["status"] == 404

    def test_malformed_campaign_is_400(self, registry):
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                reply = client.request(
                    {"op": "predict", "model": "uc1",
                     "probe": {"probe_kind": "samples", "campaign": {"benchmark": 3}}}
                )
        assert reply["status"] == 400

    def test_non_string_array_field_is_400(self, registry, intel_small):
        # A base64 array field holding another JSON type used to escape
        # decoding as AttributeError and come back as a 500.
        payload = _predict_payload(intel_small["npb/cg"].subset(range(6)))
        payload["probe"]["campaign"]["runtimes"] = 5
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                reply = client.request(payload)
        assert reply["status"] == 400, reply
        assert "base64 string" in reply["error"]

    def test_unknown_op_is_400(self, endpoint_port):
        with ServingClient("127.0.0.1", endpoint_port) as client:
            reply = client.request({"op": "teleport"})
            unhashable = client.request({"op": ["teleport"]})
        assert reply["status"] == 400
        assert unhashable["status"] == 400, unhashable

    def test_non_json_line_is_400(self, endpoint_port):
        with socket.create_connection(("127.0.0.1", endpoint_port), timeout=10) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            reply = json.loads(f.readline())
            # The connection survives the bad line.
            f.write(json.dumps({"op": "ping", "id": "after"}).encode() + b"\n")
            f.flush()
            after = json.loads(f.readline())
        assert reply["status"] == 400
        assert (after["status"], after["id"]) == (200, "after")

    def test_request_ids_round_trip(self, endpoint_port, intel_small):
        probe = intel_small["npb/cg"].subset(range(6))
        with ServingClient("127.0.0.1", endpoint_port) as client:
            reply = client.request(_predict_payload(probe, id="req-42"))
        assert (reply["status"], reply["id"]) == (200, "req-42")

    def test_ping_models_and_stats_ops(self, endpoint_port):
        with ServingClient("127.0.0.1", endpoint_port) as client:
            assert client.ping()
            models = client.request({"op": "models"})["models"]
            assert any(info["tags"] == ["uc1"] for info in models.values())
            stats = client.request({"op": "stats"})["stats"]
        assert stats["requests"] == 0  # ping/models/stats are not predicts

    def test_sampling_is_seed_deterministic(self, registry, intel_small):
        probe = intel_small["npb/is"].subset(range(6))
        with ServerHandle(registry, ServingConfig(cache_enabled=False)) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                a = client.request(_predict_payload(probe, n_samples=64, sample_seed=5))
                b = client.request(_predict_payload(probe, n_samples=64, sample_seed=5))
                c = client.request(_predict_payload(probe, n_samples=64, sample_seed=6))
        assert np.array_equal(decode_array(a["samples"]), decode_array(b["samples"]))
        assert not np.array_equal(decode_array(a["samples"]), decode_array(c["samples"]))


class TestFieldValidation:
    """Bad ``n_samples``/``sample_seed``/``deadline_s`` answer 400 at parse.

    Let through, each value below would fail inside the batch (a 500 for
    every batch-mate), break the deadline (NaN expires at once, infinity
    disables it) or be read as 1 (a boolean).
    """

    @staticmethod
    def _submit_all(registry, payloads):
        async def scenario():
            service = PredictionService(registry, ServingConfig(cache_enabled=False))
            await service.start()
            try:
                # One gather: every submit enqueues before the batch loop runs.
                return await asyncio.gather(*(service.submit(p) for p in payloads))
            finally:
                await service.close()

        return asyncio.run(scenario())

    def test_bad_request_fails_alone_not_its_batch_mates(
        self, registry, few_runs_predictor, intel_small
    ):
        probes = [intel_small[b].subset(range(6)) for b in ROSTER]
        payloads = [
            _predict_payload(p, n_samples=8, sample_seed=i) for i, p in enumerate(probes)
        ]
        payloads[2]["sample_seed"] = -1
        replies = self._submit_all(registry, payloads)
        assert [r["status"] for r in replies] == [200, 200, 400, 200], replies
        assert "sample_seed" in replies[2]["error"]
        for i in (0, 1, 3):
            assert np.array_equal(
                np.asarray(replies[i]["vector"]),
                few_runs_predictor.predict_vector(probes[i]),
            )

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_samples", True),
            ("n_samples", MAX_SAMPLES + 1),
            ("sample_seed", -1),
            ("sample_seed", True),
            ("deadline_s", float("nan")),
            ("deadline_s", float("inf")),
            ("deadline_s", True),
        ],
    )
    def test_each_bad_field_value_is_400(self, registry, intel_small, name, value):
        payload = _predict_payload(
            intel_small["npb/cg"].subset(range(6)), n_samples=4, sample_seed=1
        )
        payload[name] = value
        (reply,) = self._submit_all(registry, [payload])
        assert reply["status"] == 400, reply
        assert name in reply["error"]

    def test_unrepresentable_sketch_fails_alone(
        self, tmp_path, cross_system_predictor, intel_small
    ):
        """A sketch whose lognormal moments overflow float64 gets its own
        400; its batch-mate keeps a 200 bit-identical to predict_vector."""
        registry = ModelRegistry(tmp_path)
        registry.save(cross_system_predictor, name="uc2")
        good = SketchProbe.from_campaign(intel_small["npb/cg"].subset(range(6)))
        bad = dataclasses.replace(
            good, runtime_sketch=QuantileSketch((0.5, 0.99), (1, 1e20), 5)
        )

        async def scenario():
            service = PredictionService(registry, ServingConfig(cache_enabled=False))
            await service.start()
            release = threading.Event()
            service._executor.submit(release.wait)  # wedge: both share one batch
            asyncio.get_running_loop().call_later(0.3, release.set)
            try:
                replies = await asyncio.gather(
                    *(service.submit(predict_request("uc2", p)) for p in (good, bad))
                )
            finally:
                release.set()
                await service.close()
            return replies, service.stats()

        (good_reply, bad_reply), stats = asyncio.run(scenario())
        assert stats["batch_size_histogram"] == {"2": 1}
        assert bad_reply["status"] == 400, bad_reply
        assert "overflow" in bad_reply["error"]
        assert good_reply["status"] == 200, good_reply
        assert np.array_equal(
            np.asarray(good_reply["vector"]), cross_system_predictor.predict_vector(good)
        )

    def test_probe_from_the_wrong_system_fails_alone(
        self, registry, few_runs_predictor, intel_small, amd_small
    ):
        """An AMD probe (300 features) sent to an Intel model (272) gets
        a 400; its batch-mate keeps a 200 bit-identical to predict_vector."""
        good = intel_small["npb/cg"].subset(range(6))
        wrong = amd_small["npb/cg"].subset(range(6))

        async def scenario():
            service = PredictionService(registry, ServingConfig(cache_enabled=False))
            await service.start()
            release = threading.Event()
            service._executor.submit(release.wait)  # wedge: both share one batch
            asyncio.get_running_loop().call_later(0.3, release.set)
            try:
                replies = await asyncio.gather(
                    *(service.submit(_predict_payload(p)) for p in (good, wrong))
                )
            finally:
                release.set()
                await service.close()
            return replies, service.stats()

        (good_reply, wrong_reply), stats = asyncio.run(scenario())
        assert stats["batch_size_histogram"] == {"2": 1}
        assert wrong_reply["status"] == 400, wrong_reply
        assert "expected 272 features, got 300" in wrong_reply["error"]
        assert good_reply["status"] == 200, good_reply
        assert (
            np.asarray(good_reply["vector"]).tobytes()
            == few_runs_predictor.predict_vector(good).tobytes()
        )

    def test_max_samples_reply_stays_well_under_the_line_limit(self):
        line = json.dumps(ok(samples=encode_array(np.zeros(MAX_SAMPLES)))).encode()
        assert len(line) < _MAX_LINE_BYTES // 4


class TestObservability:
    def test_serving_metrics_are_emitted(self, registry, few_runs_predictor, intel_small):
        """With obs enabled, the documented serving.* names must appear."""
        from repro import obs

        probe = intel_small["npb/cg"].subset(range(6))
        obs.enable()
        try:
            registry.save(few_runs_predictor, name="again")
            with ServerHandle(registry, ServingConfig(cache_enabled=True)) as server:
                with ServingClient("127.0.0.1", server.port) as client:
                    client.request(_predict_payload(probe))
                    client.request(_predict_payload(probe))
                time.sleep(0.05)
            summary = obs.get_registry().snapshot()
        finally:
            obs.disable()
            obs.reset()
        counters = summary["counters"]
        for name in (
            "serving.requests",
            "serving.cache.hits",
            "serving.cache.misses",
            "serving.batches",
            "serving.batched_requests",
            "serving.registry.saves",
        ):
            assert counters.get(name, 0) >= 1, name
        assert "serving.batch_size" in summary["histograms"]
        assert "serving.latency_s" in summary["histograms"]

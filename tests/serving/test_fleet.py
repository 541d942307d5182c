"""Integration tests for the sharded serving fleet.

Contracts under test:

* **bit identity** — a fleet of any shard count returns exactly what a
  direct ``predict_vector`` call returns (sharding is placement, never
  math);
* **partition stability / spread** — requests reach the shards the
  rendezvous map dictates, and hot models rotate across replicas;
* **deterministic shedding** — a forced ρ/Cs² window produces a 429
  through the full service path, with the Kingman threshold named;
* **zero dropped responses** — a scripted join + leave cycle under
  concurrent load answers every request;
* **router deadlines** — a shard that never replies cannot hang a
  client past its deadline.
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictors import FewRunsPredictor
from repro.serving import ModelRegistry, PredictionService, ServingConfig
from repro.serving.fleet import (
    AdmissionConfig,
    FleetHandle,
    FleetRouter,
    KingmanAdmission,
    predict_fleet_p99,
    samples_to_campaign,
)
from repro.serving.fleet.router import _encode_rows
from repro.serving.protocol import (
    MAX_SAMPLES,
    decode_array,
    encode_array,
    encode_campaign,
    predict_request,
)

from .conftest import ROSTER

#: Admission that never sheds (the shedding tests force their own gate).
LENIENT = AdmissionConfig(min_samples=1_000_000)


@pytest.fixture(scope="module")
def fleet_store(tmp_path_factory, few_runs_predictor, intel_small):
    """A model store with two distinct fitted models: tags uc1 and uc1b."""
    root = tmp_path_factory.mktemp("fleet-models")
    registry = ModelRegistry(root)
    key_a = registry.save(few_runs_predictor, name="uc1")
    other = FewRunsPredictor(n_probe_runs=4, n_replicas=2).fit(intel_small)
    key_b = registry.save(other, name="uc1b")
    assert key_a != key_b
    return str(root), {"uc1": key_a, "uc1b": key_b}


@pytest.fixture(scope="module")
def fleet(fleet_store):
    """A shared 2-shard fleet with an eager hot-model threshold."""
    root, _ = fleet_store
    with FleetHandle(
        root, 2, admission_config=LENIENT, hot_window=64, hot_threshold=4
    ) as handle:
        yield handle


def _predict(client, tag, campaign, **extra):
    payload = predict_request(tag, campaign)
    payload.update(extra)
    return client.request(payload)


class TestBitIdentity:
    def test_fleet_matches_direct_calls_across_shard_counts(
        self, fleet_store, few_runs_predictor, intel_small
    ):
        """1-shard and 2-shard fleets serve byte-identical vectors."""
        root, _ = fleet_store
        probes = {b: intel_small[b].subset(range(6)) for b in ROSTER}
        expected = {
            b: few_runs_predictor.predict_vector(p) for b, p in probes.items()
        }
        for n_shards in (1, 2):
            with FleetHandle(root, n_shards, admission_config=LENIENT) as handle:
                with handle.client() as client:
                    for bench, probe in sorted(probes.items()):
                        reply = _predict(client, "uc1", probe)
                        assert reply["status"] == 200, reply
                        got = np.asarray(reply["vector"], dtype=np.float64)
                        assert np.array_equal(got, expected[bench]), (
                            n_shards,
                            bench,
                        )

    def test_sampling_seed_determinism_through_the_fleet(self, fleet, intel_small):
        probe = intel_small["npb/is"].subset(range(6))
        with fleet.client() as client:
            a = _predict(client, "uc1", probe, n_samples=32, sample_seed=3)
            b = _predict(client, "uc1", probe, n_samples=32, sample_seed=3)
        assert np.array_equal(decode_array(a["samples"]), decode_array(b["samples"]))

    def test_large_sample_response_crosses_the_shard_link(self, fleet, intel_small):
        """A response line far beyond asyncio's 64 KiB default survives.

        20k base64 float64 draws are ~210 KiB on the wire — the shard
        link must read them with the protocol's limit, not the default
        ``StreamReader`` limit (regression: an over-limit readline kills
        the demux task and 503s the whole link).
        """
        probe = intel_small["npb/is"].subset(range(6))
        with fleet.client() as client:
            reply = _predict(client, "uc1", probe, n_samples=20_000, sample_seed=1)
            assert reply["status"] == 200, reply
            assert decode_array(reply["samples"]).size == 20_000
            # and the link is still healthy for the next request
            assert _predict(client, "uc1", probe)["status"] == 200

    def test_over_cap_samples_answer_400_and_keep_the_shard_link(
        self, fleet_store, intel_small
    ):
        """A request over ``MAX_SAMPLES`` is refused before it is computed.

        An uncapped 7,000,000-draw reply (75 MB) would overrun the
        router's 64 MiB line limit and drop the only shard link for good,
        so every later predict would answer 503.
        """
        root, _ = fleet_store
        probe = intel_small["npb/is"].subset(range(6))
        with FleetHandle(root, 1, admission_config=LENIENT) as handle:
            with handle.client() as client:
                reply = _predict(
                    client, "uc1", probe, n_samples=MAX_SAMPLES + 1, sample_seed=1
                )
                assert reply["status"] == 400, reply
                assert "n_samples" in reply["error"]
                assert _predict(client, "uc1", probe)["status"] == 200


class TestRoutingAndFleetOp:
    def test_models_route_to_their_mapped_shards(self, fleet, fleet_store, intel_small):
        """Traffic lands on the shard the partition map dictates."""
        _, keys = fleet_store
        probe = intel_small["npb/cg"].subset(range(6))
        with fleet.client() as client:
            for tag in ("uc1", "uc1b"):
                for _ in range(3):
                    assert _predict(client, tag, probe)["status"] == 200
        info = fleet.info()
        assert info["status"] == 200
        assert sorted(info["map"]["shards"]) == fleet.shard_ids
        primaries = {
            tag: fleet.router.partition_map.primary(key)
            for tag, key in sorted(keys.items())
        }
        served = {
            sid: h["stats"]["requests"] for sid, h in sorted(info["health"].items())
        }
        for tag, shard in sorted(primaries.items()):
            assert served[shard] >= 1, (tag, shard, served)

    def test_hot_model_rotates_across_replicas(self, fleet, intel_small):
        """Past the hot threshold, both replicas serve the same model."""
        probe = intel_small["npb/bt"].subset(range(6))
        with fleet.client() as client:
            for i in range(30):
                # distinct subsets defeat the response cache so every
                # request really executes on the serving shard
                reply = _predict(
                    client, "uc1", intel_small["npb/bt"].subset(range(2 + i % 12))
                )
                assert reply["status"] == 200
            assert _predict(client, "uc1", probe)["status"] == 200
        info = fleet.info()
        assert info["router"]["hot_hits"] > 0
        served = [h["stats"]["requests"] for _, h in sorted(info["health"].items())]
        assert all(count > 0 for count in served), served

    def test_fleet_op_reports_health_and_samples(self, fleet):
        info = fleet.info(samples=True)
        for sid in fleet.shard_ids:
            health = info["health"][sid]
            assert health["status"] == 200
            assert "rho" in health["admission"]
            assert "cs2" in health["admission"]
        shape = info["latency_samples_shape"]
        samples = decode_array(info["latency_samples"], shape=tuple(shape))
        assert samples.ndim == 2 and samples.shape[1] == 3
        assert np.all(samples[:, 0] > 0)  # latencies are positive seconds


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(0, 2**60),
            st.integers(0, 64),
        ),
        max_size=40,
    )
)
def test_router_encodes_samples_as_encode_array_does(rows):
    """The router's numpy-free encoding of its ``(latency_s, inflight,
    shard_ord)`` buffer is byte for byte ``encode_array`` of the same rows
    as an ``(n, 3)`` float64 array, empty buffer included."""
    expected = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    assert _encode_rows(deque(rows)) == encode_array(expected)


class TestDeterministicShedding:
    def test_forced_rho_sheds_429_through_the_service(self, fleet_store, intel_small):
        """A gate at forced ρ≥ρ* answers 429 naming the Kingman knee."""
        root, _ = fleet_store
        probe = intel_small["npb/cg"].subset(range(6))
        ticks = iter(0.5 * i for i in range(1000))
        gate = KingmanAdmission(
            AdmissionConfig(min_samples=2),
            clock=lambda: next(ticks),
        )
        for _ in range(4):
            gate.observe(1.0)  # 1s service times; arrivals every 0.5s ⇒ ρ=1

        async def scenario():
            registry = ModelRegistry(root)
            service = PredictionService(
                registry, ServingConfig(cache_enabled=False), admission=gate
            )
            await service.start()
            payload = predict_request("uc1", probe)
            first = await service.submit(dict(payload))
            second = await service.submit(dict(payload))
            await service.close()
            return first, second

        first, second = asyncio.run(scenario())
        assert first["status"] == 200  # single arrival: no rate estimate yet
        assert second["status"] == 429
        assert "Kingman" in second["error"]
        assert gate.snapshot().shed == 1


class TestRebalanceUnderLoad:
    def test_join_leave_cycle_drops_no_responses(self, fleet_store, intel_small):
        """Scripted join+leave during load: every request is answered 200."""
        root, _ = fleet_store
        probes = [intel_small[b].subset(range(6)) for b in ROSTER]
        statuses: list[int] = []
        failures: list[BaseException] = []
        lock = threading.Lock()

        with FleetHandle(root, 2, admission_config=LENIENT) as handle:

            def hammer(slot: int) -> None:
                try:
                    with handle.client(timeout_s=60.0) as client:
                        for i in range(25):
                            reply = _predict(
                                client, "uc1", probes[(slot + i) % len(probes)]
                            )
                            with lock:
                                statuses.append(reply["status"])
                except BaseException as exc:  # noqa: BLE001 — collected below
                    with lock:
                        failures.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(slot,)) for slot in range(4)
            ]
            for t in threads:
                t.start()
            joined = handle.add_shard()  # scripted join under load
            handle.remove_shard("shard-0")  # scripted leave under load
            for t in threads:
                t.join()
            version = handle.info()["map"]["version"]
            assert joined in handle.shard_ids and "shard-0" not in handle.shard_ids

        assert not failures, failures
        assert len(statuses) == 4 * 25
        assert statuses.count(200) == len(statuses), sorted(set(statuses))
        assert version == 4  # two initial joins + scripted join + leave


class TestRouterDeadline:
    @pytest.mark.parametrize(
        "payload_deadline_s, default_deadline_s",
        [(0.2, 30.0), (None, 0.2)],
        ids=["payload-deadline", "default-deadline"],
    )
    def test_silent_shard_answers_504_by_the_deadline(
        self, fleet_store, intel_small, payload_deadline_s, default_deadline_s
    ):
        """A shard that reads requests and never replies: 504, no leak."""
        root, _ = fleet_store
        probe = intel_small["npb/cg"].subset(range(6))
        deadline_s = payload_deadline_s or default_deadline_s
        forwarded: list = []

        async def silent_shard(reader, writer):
            try:
                while line := await reader.readline():
                    forwarded.append(json.loads(line))
            finally:
                writer.close()

        async def scenario():
            shard = await asyncio.start_server(silent_shard, "127.0.0.1", 0)
            router = FleetRouter(root, default_deadline_s=default_deadline_s)
            await router.start()
            await router.add_shard("mute", "127.0.0.1", shard.sockets[0].getsockname()[1])
            link = router._links["mute"]
            reader, writer = await asyncio.open_connection("127.0.0.1", router.port)
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            body = predict_request(
                "uc1", probe, deadline_s=payload_deadline_s, request_id="late-1"
            )
            writer.write(json.dumps(body).encode() + b"\n")
            await writer.drain()
            reply = json.loads(await asyncio.wait_for(reader.readline(), 30))
            elapsed = loop.time() - t0
            pending, errors = link.pending, router._counters["errors"]
            writer.close()
            await writer.wait_closed()
            await router.stop(drain_shards=False)
            shard.close()
            await shard.wait_closed()
            return reply, elapsed, pending, errors

        reply, elapsed, pending, errors = asyncio.run(scenario())
        assert reply["status"] == 504, reply
        assert reply["id"] == "late-1"
        assert deadline_s <= elapsed < deadline_s + 1.0
        assert pending == 0
        assert errors == 1
        assert len(forwarded) == 1 and forwarded[0]["op"] == "predict"


class TestRemovedV1Protocol:
    def test_v1_body_rejected_with_400(self, fleet, intel_small):
        probe = intel_small["npb/cg"].subset(range(6))
        v1_body = {"op": "predict", "model": "uc1", "campaign": encode_campaign(probe)}
        with fleet.client() as client:
            reply = client.request(v1_body)
            assert _predict(client, "uc1", probe)["status"] == 200
        assert reply["status"] == 400, reply
        assert "'probe'" in reply["error"]
        assert "Traceback" not in reply["error"]


class TestFeedbackLoop:
    def test_uc1_predicts_fleet_p99_from_samples(self):
        """Synthetic latency samples flow through the UC1 pipeline."""
        rng = np.random.default_rng(7)
        n = 240
        latencies = rng.lognormal(mean=-4.0, sigma=0.3, size=n)
        inflight = rng.integers(0, 6, size=n).astype(np.float64)
        shard = rng.integers(0, 2, size=n).astype(np.float64)
        samples = np.column_stack([latencies, inflight, shard])

        campaign = samples_to_campaign(samples)
        assert campaign.n_runs == n
        assert np.all(campaign.counters > 0)

        report = predict_fleet_p99(samples, n_segments=3, n_probe_runs=8)
        assert report["p99_predicted_s"] > 0
        assert report["p99_measured_s"] > 0
        assert np.isfinite(report["relative_error"])
        assert report["n_samples"] == n

    def test_feedback_validates_inputs(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            samples_to_campaign(np.ones((4, 2)))
        with pytest.raises(ValidationError):
            predict_fleet_p99(np.ones((6, 3)), n_segments=3, n_probe_runs=8)

"""Regression tests for the graceful-drain path of the TCP server.

The PR-5 bug under test: shutting a server down while requests were in
flight cancelled their answer tasks before the responses were written,
so clients saw the socket close with no response.  The contract now is
zero dropped responses: every accepted request resolves to a real
answer (or an explicit 503 if it could not be executed) *before* its
socket closes.
"""

from __future__ import annotations

import asyncio
import gc
import json
import threading
import time

import pytest

from repro.serving import (
    ModelRegistry,
    PredictionService,
    ServerHandle,
    ServingClient,
    ServingConfig,
)
from repro.serving.protocol import predict_request
from repro.serving.server import serve
from repro.serving.service import _SHUTDOWN


@pytest.fixture()
def registry(tmp_path, few_runs_predictor):
    """A registry holding the small fitted predictor under tag ``uc1``."""
    reg = ModelRegistry(tmp_path)
    reg.save(few_runs_predictor, name="uc1")
    return reg


class TestDrainAnswersInflight:
    def test_close_waits_for_inflight_response(self, registry, intel_small):
        """A request executing during close() must still get its answer.

        Wedge the executor so a predict is pending when close() starts;
        the old code cancelled the answer task and the client read EOF.
        """
        probe = intel_small["npb/cg"].subset(range(6))
        config = ServingConfig(cache_enabled=False, default_deadline_s=30.0)
        server = ServerHandle(registry, config)
        import socket as socketlib

        sock = socketlib.create_connection(("127.0.0.1", server.port), timeout=30)
        f = sock.makefile("rwb")
        release = threading.Event()
        try:
            server.service._executor.submit(release.wait)  # wedge the worker
            payload = predict_request("uc1", probe, deadline_s=30.0, request_id="drain-1")
            f.write(json.dumps(payload).encode() + b"\n")
            f.flush()
            time.sleep(0.3)  # let the server accept and queue the request

            closer = threading.Thread(target=server.close)
            closer.start()
            time.sleep(0.2)  # close() is now draining behind the wedge
            release.set()

            line = f.readline()
            closer.join(timeout=30)
            assert not closer.is_alive()
            assert line, "server closed the socket without answering (drain bug)"
            reply = json.loads(line)
            assert reply["id"] == "drain-1"
            assert reply["status"] == 200, reply
        finally:
            release.set()
            f.close()
            sock.close()
            server.close()

    def test_requests_queued_behind_shutdown_get_503(self, registry, intel_small):
        """A request racing the shutdown marker resolves to 503, not limbo."""
        probe = intel_small["npb/cg"].subset(range(6))

        async def scenario():
            service = PredictionService(registry, ServingConfig(cache_enabled=False))
            await service.start()
            request, _ = service._parse(predict_request("uc1", probe))
            # Simulate the race: the shutdown marker lands first, then a
            # request that was already past admission gets enqueued.
            await service._queue.put(_SHUTDOWN)
            await service._queue.put(request)
            await service.close()
            return request.future.result(), service.stats()

        response, stats = asyncio.run(scenario())
        assert response["status"] == 503
        assert stats["drained"] == 1

    def test_clean_close_with_idle_connection(self, registry):
        """An idle keepalive connection must not block or break close()."""
        server = ServerHandle(registry)
        import socket as socketlib

        sock = socketlib.create_connection(("127.0.0.1", server.port), timeout=10)
        t0 = time.monotonic()
        server.close()
        assert time.monotonic() - t0 < 10.0
        sock.close()


def finished_answer_tasks() -> int:
    """Finished per-request answer tasks still reachable in this process."""
    gc.collect()
    return sum(
        1
        for obj in gc.get_objects()
        if isinstance(obj, asyncio.Task)
        and obj.done()
        and obj.get_coro().__qualname__ == "Endpoint._answer"
    )


class TestLongLivedConnection:
    def test_answered_tasks_are_released_before_the_connection_closes(self, registry):
        """The fleet router keeps one connection per shard open for the
        fleet's lifetime; the server must not hold a finished answer task
        for every request that connection ever carried."""
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                for _ in range(2000):
                    assert client.ping()
                # The last task may still be finishing its write.
                deadline = time.monotonic() + 5.0
                while finished_answer_tasks() and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert finished_answer_tasks() == 0


class TestSharedLoop:
    def test_close_leaves_other_tasks_on_the_loop(self, registry):
        """``serve`` runs inside a larger asyncio program: closing the
        endpoint ends its own connections and answers, and an unrelated
        task on the same loop keeps running."""

        async def scenario():
            neighbour = asyncio.get_running_loop().create_task(asyncio.sleep(3600))
            endpoint, service = await serve(registry)
            reader, writer = await asyncio.open_connection("127.0.0.1", endpoint.port)
            writer.write(b'{"op": "ping", "id": "p"}\n')
            await writer.drain()
            answered = json.loads(await reader.readline())
            await endpoint.close(drain=service.close)
            closed = await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            survived = not neighbour.done()
            neighbour.cancel()
            writer.close()
            return answered, closed, survived

        answered, closed, survived = asyncio.run(scenario())
        assert answered["status"] == 200 and answered["id"] == "p"
        assert closed, "the endpoint left its idle connection open"
        assert survived, "closing the endpoint cancelled an unrelated task"

"""TCP front-end for the prediction service: JSON lines over a socket.

The server is stdlib-asyncio only.  Each connection is a stream of
newline-terminated JSON requests; each request gets exactly one
newline-terminated JSON response carrying the request's ``id`` (when
supplied), so clients may pipeline.

Every JSONL endpoint of the package — the plain server, a fleet shard
and the fleet router — is one :class:`Endpoint`: a listener over an
*op table* (``op name -> async handler(payload)``; a request without an
``op`` is a ``predict``, an unknown op gets a 400).  The plain server's
table (:func:`service_ops`) is:

* ``predict`` — full body handled by
  :meth:`~repro.serving.service.PredictionService.submit`;
* ``models`` — registry listing;
* ``stats`` — service counters + batch-size histogram;
* ``ping`` — liveness.

A fleet shard adds ``health``/``drain``; the fleet router brings its
own ``predict``/``stats``/``fleet`` and reuses ``ping``/``models``.

Two deployment shapes:

* :func:`serve` — run a server inside an existing asyncio program;
* :class:`ServerHandle` — own a background event-loop thread, for
  synchronous callers (tests, the bench harness, the CLI).  The fleet's
  :class:`~repro.serving.fleet.handle.FleetHandle` hosts its router on
  the same :class:`BackgroundLoop`.

:class:`ServingClient` is the matching synchronous client: one socket,
blocking JSONL request/response, no third-party dependencies.

The fleet router shares this endpoint layer and loads no numpy, so the
module imports the service (in :func:`serve`) and the protocol's probe
codecs (in :meth:`ServingClient.predict`) only where they are called.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
from collections.abc import Awaitable, Callable
from typing import TYPE_CHECKING

from ..errors import ValidationError
from .replies import error, ok

if TYPE_CHECKING:
    from .config import ServingConfig
    from .registry import ModelRegistry
    from .service import PredictionService

__all__ = ["Endpoint", "serve", "ServerHandle", "ServingClient"]

#: One op of an endpoint's table: the decoded request in, the response out.
Handler = Callable[[dict], Awaitable[dict]]

#: Upper bound on one request line; guards the reader against a
#: malicious or broken client streaming an unbounded line.
_MAX_LINE_BYTES = 64 * 1024 * 1024

#: How long a closing endpoint waits for its in-flight answers.
_GRACE_S = 5.0


async def ping(payload: dict) -> dict:
    """``ping`` op: liveness."""
    return ok(op="ping")


def models_op(registry: ModelRegistry) -> Handler:
    """``models`` op over *registry*: every stored model and its tags."""

    async def models(payload: dict) -> dict:
        # available() reads every tag/meta file in the artifact store;
        # keep that disk scan off the event loop.
        loop = asyncio.get_running_loop()
        return ok(models=await loop.run_in_executor(None, registry.available))

    return models


def service_ops(service: PredictionService) -> dict[str, Handler]:
    """The plain server's op table: ``predict``/``ping``/``models``/``stats``."""

    async def stats(payload: dict) -> dict:
        return ok(stats=service.stats())

    return {
        "predict": service.submit,
        "ping": ping,
        "models": models_op(service.registry),
        "stats": stats,
    }


class Endpoint:
    """A JSONL listener that dispatches every request through an op table.

    Requests on a connection run as concurrent answer tasks (so a slow
    predict does not block a ping behind it); a per-connection lock
    serializes writes so responses never interleave mid-line.  The
    endpoint holds each connection-handler and answer task only until it
    finishes (a long-lived connection, such as the fleet router's link
    to a shard, must not keep every task it ever ran), and :meth:`close`
    waits for the answers still running before sockets close.  Those
    are the only tasks the endpoint touches: it shares its loop with
    whatever else the program runs.
    """

    def __init__(self, ops: dict[str, Handler]) -> None:
        """Serve *ops* (``op name -> async handler(payload)``) once started."""
        self.ops = ops
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._answers: set[asyncio.Task] = set()

    async def start(self, *, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the listener (``port=0`` = ephemeral)."""
        self._server = await asyncio.start_server(
            self._accept, host=host, port=port, limit=_MAX_LINE_BYTES
        )

    @property
    def port(self) -> int:
        """Bound TCP port."""
        return self._server.sockets[0].getsockname()[1]

    async def close(
        self,
        *,
        drain: Callable[[], Awaitable] | None = None,
        then: Callable[[], Awaitable] | None = None,
    ) -> None:
        """Graceful close: every accepted request is answered, then stop.

        The steps every endpoint takes: (1) stop accepting connections,
        (2) wait up to the grace period for in-flight answer tasks to
        write their responses, and only then (3) cancel the endpoint's
        own tasks still running, such as connection handlers blocked
        reading from idle keepalive sockets.  Cancelling before step 2
        is what used to drop responses on the floor.  Other tasks on the
        loop are left alone; the loop's host ends them with the loop
        (``asyncio.run``, :class:`BackgroundLoop`).  The owner's own
        drain step runs
        where its answers need it: *drain* before step 2 (the server
        closes its service, so every queued request resolves to a real
        answer or a 503), *then* after it (the router drains its shards
        once its clients have their answers).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain is not None:
            await drain()
        pending = {task for task in self._answers if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=_GRACE_S)
        if then is not None:
            await then()
        leftovers = [t for t in (*self._connections, *self._answers) if not t.done()]
        for task in leftovers:
            task.cancel()
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)

    async def _answer(self, payload: dict, reply: Callable[[dict], Awaitable]) -> None:
        """Dispatch one request through the op table and write its response."""
        op = payload.get("op", "predict")
        handler = self.ops.get(op) if isinstance(op, str) else None
        if handler is None:
            response = error(400, f"unknown op {op!r}")
        else:
            try:
                response = await handler(payload)
            except Exception as exc:  # noqa: BLE001 — connection must survive
                response = error(500, f"{type(exc).__name__}: {exc}")
        request_id = payload.get("id")
        if request_id is not None:
            response["id"] = request_id
        await reply(response)

    def _start_answer(self, payload: dict, reply, tasks: set) -> None:
        """Answer *payload* in a task held by *tasks* and the endpoint until done.

        A call of its own, so the connection loop's frame holds no
        reference to the last task it started.
        """
        task = asyncio.get_running_loop().create_task(self._answer(payload, reply))
        for owner in (tasks, self._answers):
            owner.add(task)
            task.add_done_callback(owner.discard)

    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Serve a new connection in a task the endpoint holds until done.

        The task is registered as it is created, so a close that follows
        the accept at once still finds it.
        """
        task = asyncio.get_running_loop().create_task(self._connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection until EOF (or close-time cancellation)."""
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def reply(response: dict) -> None:
            async with write_lock:
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError, asyncio.CancelledError):
                    break  # a cancel here means "drain": flush in-flight answers
                if not line or len(line) > _MAX_LINE_BYTES:
                    break
                try:
                    payload = json.loads(line)
                except ValueError:
                    payload = None
                if isinstance(payload, dict):
                    self._start_answer(payload, reply, tasks)
                else:
                    await reply(error(400, "request line is not a JSON object"))
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except asyncio.CancelledError:
            pass  # close() cancels connections still open after its grace period
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError, asyncio.CancelledError):
                await writer.wait_closed()


async def serve(
    registry: ModelRegistry,
    config: ServingConfig | None = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    admission=None,
) -> tuple[Endpoint, PredictionService]:
    """Start a server inside the running loop; returns (endpoint, service).

    ``port=0`` binds an ephemeral port — read it back from
    ``endpoint.port``.  Pass an *admission* gate to shed on predicted
    wait in front of the ``queue_limit`` cap (see
    :class:`~repro.serving.fleet.admission.KingmanAdmission`).  Close
    with ``await endpoint.close(drain=service.close)``: the service
    answers (or 503s) every queued request before the endpoint waits
    for their answers to be written.  The close cancels only the
    endpoint's own connection and answer tasks, so the server can share
    a loop with the rest of an asyncio program.
    """
    from .service import PredictionService

    service = PredictionService(registry, config, admission=admission)
    endpoint = Endpoint(service_ops(service))
    await endpoint.start(host=host, port=port)  # a failed bind starts nothing
    await service.start()
    return endpoint, service


class BackgroundLoop:
    """An event loop on its own thread, hosting one endpoint for sync callers.

    *start* runs first (its exception is re-raised to the constructor);
    after :meth:`close` stops the loop, *stop* runs on it, then every
    task still on the loop is cancelled and awaited (as ``asyncio.run``
    does) before the loop closes.  :class:`ServerHandle` and
    :class:`~repro.serving.fleet.handle.FleetHandle` are built on it.
    """

    def __init__(
        self,
        start: Callable[[], Awaitable],
        stop: Callable[[], Awaitable],
        *,
        name: str,
    ) -> None:
        """Start the loop thread named *name*; block until *start* returns."""
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()
        startup_error: list[BaseException] = []

        def run() -> None:
            loop = self._loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(start())
            except BaseException as exc:  # noqa: BLE001 — surfaced to ctor
                startup_error.append(exc)
                loop.close()
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(stop())
                leftovers = asyncio.all_tasks(loop)
                for task in leftovers:
                    task.cancel()
                loop.run_until_complete(
                    asyncio.gather(*leftovers, return_exceptions=True)
                )
                loop.close()

        self._thread = threading.Thread(target=run, name=name, daemon=True)
        self._thread.start()
        ready.wait()
        if startup_error:
            raise startup_error[0]

    def call(self, coro, timeout_s: float = 60.0):
        """Run *coro* on the loop from a synchronous thread; return its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout_s)

    def close(self, timeout_s: float) -> None:
        """Stop the loop, let *stop* run, and join the thread (idempotent)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout_s)


class ServerHandle:
    """A serving endpoint running on its own background event-loop thread.

    For synchronous callers: construct, read ``.port``, talk to it with
    :class:`ServingClient`, then ``close()`` (also a context manager).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServingConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        """Start the loop thread and block until the socket is bound."""
        self.host = host
        self._endpoint: Endpoint | None = None
        self._service: PredictionService | None = None

        async def start() -> None:
            self._endpoint, self._service = await serve(
                registry, config, host=host, port=port
            )

        async def stop() -> None:
            await self._endpoint.close(drain=self._service.close)

        self._loop = BackgroundLoop(start, stop, name="repro-serving-loop")

    @property
    def port(self) -> int:
        """Bound TCP port."""
        return self._endpoint.port

    @property
    def service(self) -> PredictionService:
        """The underlying service (for stats inspection in tests)."""
        return self._service

    def close(self) -> None:
        """Stop the server, drain the service, and join the loop thread."""
        self._loop.close(timeout_s=30)

    def __enter__(self) -> "ServerHandle":
        """Context-manager entry (the server is already running)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the server."""
        self.close()


class ServingClient:
    """Blocking JSONL client for one serving endpoint."""

    def __init__(self, host: str, port: int, *, timeout_s: float = 30.0) -> None:
        """Connect to ``host:port``; *timeout_s* bounds each response wait."""
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._file = self._sock.makefile("rwb")

    def request(self, payload: dict) -> dict:
        """Send one request object, block for its one-line response."""
        self._file.write(json.dumps(payload).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ValidationError("server closed the connection mid-request")
        return json.loads(line)

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return self.request({"op": "ping"}).get("status") == 200

    def predict(
        self,
        model: str,
        probe,
        *,
        n_samples: int = 0,
        sample_seed: int = 0,
        deadline_s: float | None = None,
        request_id: str | None = None,
    ) -> dict:
        """One predict round-trip for any :data:`~repro.core.sketch.Probe`.

        *probe* may be a :class:`~repro.data.dataset.RunCampaign`, a
        :class:`~repro.core.sketch.SampleProbe`, or a percentile-only
        :class:`~repro.core.sketch.SketchProbe`; the request goes out as
        a v2 body (``probe_kind`` + encoded probe).
        """
        from .protocol import predict_request

        body = predict_request(
            model,
            probe,
            n_samples=n_samples,
            sample_seed=sample_seed,
            deadline_s=deadline_s,
            request_id=request_id,
        )
        return self.request(body)

    def close(self) -> None:
        """Close the socket."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServingClient":
        """Context-manager entry."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the connection."""
        self.close()

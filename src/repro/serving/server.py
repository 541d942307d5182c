"""TCP front-end for the prediction service: JSON lines over a socket.

The server is stdlib-asyncio only.  Each connection is a stream of
newline-terminated JSON requests; each request gets exactly one
newline-terminated JSON response carrying the request's ``id`` (when
supplied), so clients may pipeline.  Supported ``op`` values:

* ``predict`` — full body handled by
  :meth:`~repro.serving.service.PredictionService.submit`;
* ``models`` — registry listing;
* ``stats`` — service counters + batch-size histogram;
* ``ping`` — liveness.

Two deployment shapes:

* :func:`serve` — run a server inside an existing asyncio program;
* :class:`ServerHandle` — own a background event-loop thread, for
  synchronous callers (tests, the bench harness, the CLI).

:class:`ServingClient` is the matching synchronous client: one socket,
blocking JSONL request/response, no third-party dependencies.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

from ..errors import ValidationError
from .protocol import error, predict_request
from .registry import ModelRegistry
from .service import PredictionService, ServingConfig

__all__ = ["serve", "shutdown_server", "ServerHandle", "ServingClient"]

#: Upper bound on one request line; guards the reader against a
#: malicious or broken client streaming an unbounded line.
_MAX_LINE_BYTES = 64 * 1024 * 1024


async def _handle_request(service: PredictionService, payload: dict) -> dict:
    """Dispatch one decoded request to the service."""
    op = payload.get("op", "predict")
    if op == "predict":
        return await service.submit(payload)
    if op == "ping":
        return {"status": 200, "op": "ping"}
    if op == "models":
        # available() reads every tag/meta file in the artifact store;
        # keep that disk scan off the event loop.
        loop = asyncio.get_running_loop()
        models = await loop.run_in_executor(None, service.registry.available)
        return {"status": 200, "models": models}
    if op == "stats":
        return {"status": 200, "stats": service.stats()}
    return error(400, f"unknown op {op!r}")


async def _handle_connection(
    service: PredictionService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    inflight: set | None = None,
    dispatch=None,
) -> None:
    """Serve one client connection until EOF (or drain-time cancellation).

    Requests on a connection run as concurrent tasks (so a slow predict
    does not block a ping behind it); a per-connection lock serializes
    writes so responses never interleave mid-line.  Answer tasks are
    registered in the server-wide *inflight* set so a draining server
    can wait for pending responses to be written before sockets close.
    Cancellation while blocked on ``readline`` means "drain": stop
    reading, but still flush every response already in flight.  A
    *dispatch* override lets the fleet router reuse this connection
    machinery with its own request handler.
    """
    write_lock = asyncio.Lock()
    tasks: list[asyncio.Task] = []
    handle = dispatch if dispatch is not None else _handle_request

    async def answer(payload: dict, request_id) -> None:
        try:
            response = await handle(service, payload)
        except Exception as exc:  # noqa: BLE001 — connection must survive
            response = error(500, f"{type(exc).__name__}: {exc}")
        if request_id is not None:
            response["id"] = request_id
        async with write_lock:
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()

    try:
        while True:
            try:
                line = await reader.readline()
            except (ValueError, ConnectionError):
                break
            except asyncio.CancelledError:
                break  # draining: stop reading, flush in-flight answers
            if not line:
                break
            if len(line) > _MAX_LINE_BYTES:
                break
            try:
                payload = json.loads(line)
            except ValueError:
                await answer_malformed(writer, write_lock)
                continue
            if not isinstance(payload, dict):
                await answer_malformed(writer, write_lock)
                continue
            task = asyncio.get_running_loop().create_task(
                answer(payload, payload.get("id"))
            )
            tasks.append(task)
            if inflight is not None:
                inflight.add(task)
                task.add_done_callback(inflight.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def answer_malformed(writer: asyncio.StreamWriter, lock: asyncio.Lock) -> None:
    """Reply 400 to a line that was not a JSON object."""
    async with lock:
        writer.write(
            json.dumps(error(400, "request line is not a JSON object")).encode()
            + b"\n"
        )
        await writer.drain()


async def serve(
    registry: ModelRegistry,
    config: ServingConfig | None = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    admission=None,
    inflight: set | None = None,
    extra_ops: dict | None = None,
) -> tuple[asyncio.AbstractServer, PredictionService]:
    """Start a server inside the running loop; returns (server, service).

    ``port=0`` binds an ephemeral port — read it back from
    ``server.sockets[0].getsockname()[1]``.  Pass an *admission* gate to
    shed on predicted wait in front of the ``queue_limit`` cap (fleet
    shards pass a :class:`~repro.serving.fleet.admission.KingmanAdmission`),
    an *inflight* set to observe pending answer tasks during drain, and
    *extra_ops* (``op -> async handler(service, payload)``) to extend
    the protocol (shards add ``health``/``drain``).
    """
    service = PredictionService(registry, config, admission=admission)
    await service.start()

    if extra_ops:
        async def dispatch(svc, payload):
            handler = extra_ops.get(payload.get("op"))
            if handler is not None:
                return await handler(svc, payload)
            return await _handle_request(svc, payload)
    else:
        dispatch = None

    async def on_connect(reader, writer):
        try:
            await _handle_connection(service, reader, writer, inflight, dispatch)
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight connection tasks; a
            # dying connection is the expected outcome, not an error.
            pass

    server = await asyncio.start_server(
        on_connect, host=host, port=port, limit=_MAX_LINE_BYTES
    )
    return server, service


async def shutdown_server(
    server: asyncio.AbstractServer,
    service: PredictionService,
    inflight: set | None = None,
    *,
    grace_s: float = 5.0,
) -> None:
    """Graceful drain: every in-flight request is answered, then close.

    The sequence is load-bearing for shard rebalance (and was the PR-5
    drain bug): (1) stop accepting connections, (2) drain the batch
    queue — every accepted request's future resolves, to a real answer
    or a 503, (3) wait up to *grace_s* for pending answer tasks to
    write their responses, and only then (4) cancel the connection
    handlers still blocked reading from idle keepalive sockets.
    Cancelling before step 3 is what used to drop responses on the
    floor.
    """
    server.close()
    await server.wait_closed()
    await service.close()
    if inflight:
        pending = {task for task in inflight if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=grace_s)
    current = asyncio.current_task()
    leftovers = [t for t in asyncio.all_tasks() if t is not current]
    for task in leftovers:
        task.cancel()
    if leftovers:
        await asyncio.gather(*leftovers, return_exceptions=True)


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
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._service: PredictionService | None = None
        self._startup_error: BaseException | None = None
        self._inflight: set = set()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self._server, self._service = loop.run_until_complete(
                    serve(registry, config, host=host, port=port, inflight=self._inflight)
                )
            except BaseException as exc:  # noqa: BLE001 — surfaced to ctor
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self._shutdown())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-serving-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error

    async def _shutdown(self) -> None:
        await shutdown_server(self._server, self._service, self._inflight)

    @property
    def port(self) -> int:
        """Bound TCP port."""
        return self._server.sockets[0].getsockname()[1]

    @property
    def service(self) -> PredictionService:
        """The underlying service (for stats inspection in tests)."""
        return self._service

    def close(self) -> None:
        """Stop the server, drain the service, and join the loop thread."""
        if self._loop is None or not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

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

"""Asyncio front router: one endpoint, N shard processes behind it.

The router speaks the same JSONL protocol as a single server — existing
:class:`~repro.serving.server.ServingClient` code points at the router
port unchanged — and forwards ``predict`` requests to shard processes
over persistent multiplexed links:

* **placement** — the model tag is resolved to its content key against
  the shared artifact store, and the key's shard comes from the
  :class:`~repro.serving.fleet.partition.PartitionMap` (rendezvous
  hashing, so placement is a pure function of fleet membership);
* **replica routing for hot models** — a sliding window counts requests
  per content key; keys above the hot threshold round-robin across
  their replica set instead of pinning the primary (any replica returns
  bit-identical answers, so spreading is free of correctness cost);
* **graceful rebalance** — join/leave swaps in a *new* partition map
  first (new arrivals route around the leaving shard), then drains the
  shard's in-flight requests to completion, then closes the link: no
  dropped responses, with the map re-announced (bumped ``version``)
  through the ``fleet`` op;
* **self-observation** — the router records its own end-to-end latency
  samples (``fleet.latency_s`` plus a bounded in-memory buffer exposed
  over the ``fleet`` op), which the bench harness feeds back through
  the paper's UC1 pipeline (:mod:`repro.serving.fleet.feedback`).

Shedding stays *at the shards* — each runs its own Kingman admission
gate against its measured service times — and 429s relay through
transparently; the router only answers 503 itself when a shard link is
down or the fleet is empty, and 504 when a shard has not answered a
request shortly after its deadline (a torn or lost reply).
"""

from __future__ import annotations

import array
import asyncio
import base64
import json
import sys
from collections import deque

from ... import obs
from ...errors import ArtifactError, ValidationError
from ..config import ServingConfig
from ..registry import ModelRegistry
from ..replies import error, ok
from ..server import _MAX_LINE_BYTES, Endpoint, models_op, ping
from .messages import OP_DRAIN, OP_FLEET, OP_HEALTH
from .partition import PartitionMap

__all__ = ["ShardLink", "FleetRouter"]

#: Bound on the router's in-memory latency sample buffer.
_SAMPLE_BUFFER = 4096

#: How long past a request's deadline the router waits for the shard's
#: own answer (normally the shard's 504) before answering 504 itself.
_DEADLINE_GRACE_S = 0.1


class ShardLink:
    """One persistent multiplexed connection from the router to a shard.

    Requests are tagged with internal ids and futures; one reader task
    demultiplexes response lines back to their futures, so any number of
    forwarded requests share the single socket without head-of-line
    coupling in the router.  Every request is bounded by a timer at its
    deadline (plus a short grace), so a reply the shard never sends
    resolves to a 504 instead of hanging until the link closes.
    """

    def __init__(
        self, shard_id: str, host: str, port: int, default_deadline_s: float
    ) -> None:
        """Record the endpoint; ``await connect()`` before use.

        *default_deadline_s* bounds requests that carry no valid
        ``deadline_s`` of their own — the shards' own default.
        """
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.default_deadline_s = float(default_deadline_s)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[str, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False

    async def connect(self) -> None:
        """Open the socket and start the response demultiplexer.

        The stream limit must match the server's — predict responses
        carry base64 float64 arrays far beyond asyncio's default 64 KiB
        ``StreamReader`` limit, and an over-limit ``readline()`` raises
        instead of returning the line.
        """
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=_MAX_LINE_BYTES
        )
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @property
    def alive(self) -> bool:
        """Whether the link can accept new requests."""
        return not self._closed and self._writer is not None

    @property
    def pending(self) -> int:
        """Requests forwarded to this shard and not yet answered."""
        return len(self._pending)

    async def _read_loop(self) -> None:
        """Demultiplex response lines to their waiting futures."""
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except ValueError:
                    continue  # torn line; the pending future fails at close
                if not isinstance(response, dict):
                    continue  # non-object line: nothing to demultiplex
                request_id = response.pop("id", None)
                future = self._pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, OSError, ValueError, asyncio.CancelledError):
            # ValueError covers an over-limit readline(): the stream is
            # beyond recovery mid-line, so treat it like a lost link.
            pass
        finally:
            self._fail_pending()

    def _fail_pending(self) -> None:
        """Resolve every outstanding future with a 503 (link lost)."""
        self._closed = True
        for request_id in sorted(self._pending):
            future = self._pending.pop(request_id)
            if not future.done():
                future.set_result(
                    error(503, f"shard {self.shard_id!r} connection lost")
                )

    def _expire(self, link_id: str, timeout_s: float) -> None:
        """Deadline timer: answer 504 for a reply that never arrived."""
        future = self._pending.pop(link_id, None)
        if future is not None and not future.done():
            future.set_result(
                error(
                    504,
                    f"shard {self.shard_id!r} did not answer within {timeout_s:.3g}s",
                )
            )

    async def request(self, payload: dict) -> dict:
        """Forward one request; resolves with the shard's response.

        Resolves with a 504 when no reply arrives by the request's
        deadline (its ``deadline_s``, else the link default) plus a
        short grace, so the shard's own 504 normally wins.
        """
        if not self.alive:
            return error(503, f"shard {self.shard_id!r} is not connected")
        self._next_id += 1
        link_id = f"r{self._next_id}"
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending[link_id] = future
        wired = dict(payload)
        wired["id"] = link_id
        try:
            self._writer.write(json.dumps(wired).encode() + b"\n")
            await self._writer.drain()
        except (ConnectionError, OSError):
            self._fail_pending()
            return error(503, f"shard {self.shard_id!r} connection lost")
        deadline_s = payload.get("deadline_s")
        if not isinstance(deadline_s, (int, float)) or not deadline_s > 0:
            deadline_s = self.default_deadline_s  # the shard answers 400 if invalid
        timeout_s = deadline_s + _DEADLINE_GRACE_S
        timer = loop.call_later(timeout_s, self._expire, link_id, timeout_s)
        try:
            # The reader loop already stripped our link id; the caller's own
            # request id (if any) is re-attached by the router's connection
            # layer when the response is written back.
            return await future
        finally:
            timer.cancel()
            self._pending.pop(link_id, None)

    async def drain(self) -> None:
        """Wait until every forwarded request has been answered."""
        while self._pending:
            futures = [f for f in self._pending.values() if not f.done()]
            if not futures:
                break
            await asyncio.wait(futures)

    async def close(self) -> None:
        """Stop the demultiplexer and close the socket."""
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._fail_pending()


class FleetRouter:
    """Partition-map router over a set of shard links.

    Owns the client-facing listener, the partition map, the hot-model
    window, and the router-side metric surface.  All state is touched
    only from the router's event loop; synchronous orchestration goes
    through :class:`~repro.serving.fleet.handle.FleetHandle`.
    """

    def __init__(
        self,
        store_root,
        *,
        hot_window: int = 128,
        hot_threshold: int = 16,
        default_deadline_s: float = ServingConfig.default_deadline_s,
    ) -> None:
        """Create an empty fleet over the shared store at *store_root*.

        *hot_window* is how many recent predict keys the popularity
        window remembers; a key seen at least *hot_threshold* times in
        the window round-robins across its rendezvous replicas instead
        of pinning its primary shard.
        *default_deadline_s* is the shards' default request deadline,
        which every shard link enforces too (see :class:`ShardLink`).
        """
        self.registry = ModelRegistry(store_root)
        self._default_deadline_s = default_deadline_s
        self._map = PartitionMap((), version=0)
        self._links: dict[str, ShardLink] = {}
        self._hot_window = int(hot_window)
        self._hot_threshold = int(hot_threshold)
        self._recent: deque[str] = deque()
        self._recent_counts: dict[str, int] = {}
        self._rr: dict[str, int] = {}
        self._samples: deque = deque(maxlen=_SAMPLE_BUFFER)
        self._counters = {
            "requests": 0,
            "forwarded": 0,
            "hot_hits": 0,
            "errors": 0,
            "rebalances": 0,
        }
        self._endpoint = Endpoint(
            {
                "predict": self._predict,
                "ping": ping,
                "models": models_op(self.registry),
                "stats": self._stats_op,
                OP_FLEET: self._fleet_op,
            }
        )

    @property
    def partition_map(self) -> PartitionMap:
        """Current partition map (immutable; swapped atomically)."""
        return self._map

    @property
    def port(self) -> int:
        """Bound client-facing TCP port."""
        return self._endpoint.port

    async def start(self, *, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the client-facing listener (``port=0`` = ephemeral)."""
        await self._endpoint.start(host=host, port=port)

    async def add_shard(self, shard_id: str, host: str, port: int) -> None:
        """Join a shard: connect its link, then announce the new map.

        The link comes up *before* the map swap so the first request
        routed to the newcomer never sees a missing connection.
        """
        if shard_id in self._links:
            raise ValidationError(f"shard {shard_id!r} already joined")
        with obs.span("fleet.rebalance", kind="join", shard=shard_id):
            link = ShardLink(shard_id, host, port, self._default_deadline_s)
            await link.connect()
            self._links[shard_id] = link
            self._map = self._map.with_shard(shard_id)
        self._counters["rebalances"] += 1
        obs.counter("fleet.rebalances")
        obs.gauge("fleet.shards", len(self._map.shards))
        obs.gauge("fleet.map_version", self._map.version)

    async def remove_shard(self, shard_id: str, *, drain: bool = True) -> None:
        """Leave a shard gracefully: route away, drain, then disconnect.

        The map swap happens *first* so new arrivals route around the
        leaving shard while its in-flight requests finish; with *drain*
        the shard is told to answer everything and exit before the link
        closes — the zero-dropped-responses half of the rebalance
        contract.
        """
        if shard_id not in self._links:
            raise ValidationError(f"shard {shard_id!r} is not in the fleet")
        with obs.span("fleet.rebalance", kind="leave", shard=shard_id):
            self._map = self._map.without_shard(shard_id)
            link = self._links.pop(shard_id)
            if drain and link.alive:
                await link.request({"op": OP_DRAIN})
                await link.drain()
            await link.close()
        self._counters["rebalances"] += 1
        obs.counter("fleet.rebalances")
        obs.gauge("fleet.shards", len(self._map.shards))
        obs.gauge("fleet.map_version", self._map.version)

    async def stop(self, *, drain_shards: bool = True) -> None:
        """Shut the fleet down: close the listener, answer clients, disconnect.

        The endpoint's close waits for every client answer in flight,
        then takes the shards down (with their own graceful drain when
        *drain_shards*).
        """

        async def disconnect() -> None:
            for shard_id in sorted(self._links):
                link = self._links[shard_id]
                if drain_shards and link.alive:
                    await link.request({"op": OP_DRAIN})
                    await link.drain()
                await link.close()
            self._links.clear()

        await self._endpoint.close(then=disconnect)

    def latency_samples(self) -> list:
        """Copy of the bounded ``(latency_s, inflight, shard_ord)`` buffer."""
        return list(self._samples)

    def _route(self, key: str) -> list[str]:
        """Candidate shard ids for *key*, best first (hot keys rotate)."""
        replicas = list(self._map.replicas(key))
        if len(self._recent) >= self._hot_window:
            evicted = self._recent.popleft()
            self._recent_counts[evicted] -= 1
            if not self._recent_counts[evicted]:
                del self._recent_counts[evicted]
        self._recent.append(key)
        self._recent_counts[key] = self._recent_counts.get(key, 0) + 1
        if self._recent_counts[key] >= self._hot_threshold and len(replicas) > 1:
            turn = self._rr.get(key, 0) % len(replicas)
            self._rr[key] = turn + 1
            self._counters["hot_hits"] += 1
            obs.counter("fleet.hot_hits")
            return replicas[turn:] + replicas[:turn]
        return replicas

    async def _predict(self, payload: dict) -> dict:
        """Route one predict request to a shard and relay its answer."""
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        self._counters["requests"] += 1
        obs.counter("fleet.requests")
        model = payload.get("model")
        if not isinstance(model, str) or not model:
            return error(400, "request needs a 'model' tag or content key")
        try:
            # resolve() may read a tag file from the artifact store;
            # hop through the executor so the loop never blocks on disk.
            key = await loop.run_in_executor(None, self.registry.resolve, model)
        except ArtifactError as exc:
            return error(404, str(exc))
        if not self._map.shards:
            self._counters["errors"] += 1
            obs.counter("fleet.router.errors")
            return error(503, "fleet has no shards")
        inflight = sum(
            self._links[sid].pending for sid in self._map.shards if sid in self._links
        )
        response = None
        chosen = None
        for shard_id in self._route(key):
            link = self._links.get(shard_id)
            if link is None or not link.alive:
                continue
            self._counters["forwarded"] += 1
            obs.counter("fleet.forwarded")
            chosen = shard_id
            response = await link.request(payload)
            if response.get("status") != 503:
                break
        if response is None:
            self._counters["errors"] += 1
            obs.counter("fleet.router.errors")
            return error(503, f"no live replica for model {key[:12]}")
        status = response.get("status")
        if not isinstance(status, int) or status >= 500:
            # a reply without an integer status is malformed: count it,
            # but still relay rather than crash the connection handler
            self._counters["errors"] += 1
            obs.counter("fleet.router.errors")
        latency_s = loop.time() - t0
        obs.observe("fleet.latency_s", latency_s)
        shard_ord = self._map.shards.index(chosen) if chosen in self._map.shards else 0
        self._samples.append((latency_s, inflight, shard_ord))
        return response

    async def _stats_op(self, payload: dict) -> dict:
        """``stats`` op: router counters plus every shard's counters."""
        shards: dict[str, dict] = {}
        for shard_id in sorted(self._links):
            link = self._links[shard_id]
            if not link.alive:
                shards[shard_id] = error(503, "link down")
                continue
            reply = await link.request({"op": "stats"})
            shards[shard_id] = reply.get("stats", reply)
        return ok(stats=dict(self._counters), shards=shards)

    async def _fleet_op(self, payload: dict) -> dict:
        """``fleet`` op: the map announcement + pulled shard heartbeats.

        With ``"samples": true`` the response also carries the router's
        latency sample buffer as a base64 ``(n, 3)`` float64 array
        (latency seconds, fleet in-flight depth at arrival, shard
        ordinal) — the raw material for the UC1 feedback loop.
        """
        health: dict[str, dict] = {}
        for shard_id in sorted(self._links):
            link = self._links[shard_id]
            if link.alive:
                health[shard_id] = await link.request({"op": OP_HEALTH})
            else:
                health[shard_id] = error(503, "link down")
        body = ok(map=self._map.to_wire(), router=dict(self._counters), health=health)
        if payload.get("samples"):
            body["latency_samples"] = _encode_rows(self._samples)
            body["latency_samples_shape"] = [len(self._samples), 3]
        return body


def _encode_rows(rows) -> str:
    """Base64 little-endian float64 bytes of *rows* of numbers, row-major.

    Byte for byte what :func:`~repro.serving.protocol.encode_array` gives
    for the same rows as a float64 array, without importing numpy: the
    router process never loads it.
    """
    flat = array.array("d", [value for row in rows for value in row])
    if sys.byteorder == "big":
        flat.byteswap()
    return base64.b64encode(flat.tobytes()).decode("ascii")

"""Load generator: open-loop Poisson arrivals and a pipelined closed loop.

One asyncio process drives the server over at most ``nproc``
connections.  Requests are JSON lines carrying an ``id``; responses come
back in any order and are matched by that id, so several requests can
be in flight on one connection.

* **Open loop** — arrivals follow a Poisson schedule fixed by the seed.
  A request is timed from when it was *due*, not from when the
  generator got round to sending it, so a stall (in the server or in
  the generator itself) is charged to every request it delayed.  The
  generator's own lateness (sent − due) is recorded per request.
* **Closed loop** — ``depth`` outstanding requests per connection; each
  answer releases the next request.  This measures saturation
  throughput, and its latencies are timed from the actual send.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

import numpy as np

from common import percentile

__all__ = [
    "Request",
    "Outcome",
    "poisson_offsets",
    "run_open",
    "run_closed",
    "latency_ms",
    "lateness_ms",
]

#: Matches the server's line limit; sample responses exceed asyncio's
#: 64 KiB default.
_LINE_LIMIT = 64 * 1024 * 1024


@dataclass
class Request:
    """One request: its id and the encoded JSON line (with ``id``)."""

    rid: str
    line: bytes


@dataclass
class Outcome:
    """What happened to one request (times from ``time.perf_counter``)."""

    rid: str
    due: float
    sent: float
    done: float | None = None
    body: dict | None = None
    nbytes_out: int = 0
    nbytes_in: int = 0

    @property
    def status(self) -> int | None:
        """HTTP-style status of the answer, ``None`` when unanswered."""
        return None if self.body is None else self.body.get("status")


def poisson_offsets(rate_per_s: float, duration_s: float, seed: int) -> list[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    rng = np.random.default_rng(seed)
    out, t = [], 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_per_s))
        if t >= duration_s:
            return out
        out.append(t)


class _Link:
    """One client connection; a reader task resolves futures by id."""

    def __init__(self, reader, writer, pending: dict) -> None:
        self.reader = reader
        self.writer = writer
        self.pending = pending
        self.task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        while True:
            try:
                line = await self.reader.readline()
            except (ConnectionError, ValueError):
                return
            if not line:
                return
            t_done = time.perf_counter()
            body = json.loads(line)
            fut = self.pending.pop(body.get("id"), None)
            if fut is not None and not fut.done():
                fut.set_result((t_done, body, len(line)))

    def send(self, request: Request) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self.pending[request.rid] = fut
        self.writer.write(request.line)
        return fut

    async def close(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _connect(host: str, port: int, n_conns: int) -> list[_Link]:
    pending: dict = {}  # request id -> future, shared by all links
    links = []
    for _ in range(n_conns):
        reader, writer = await asyncio.open_connection(host, port, limit=_LINE_LIMIT)
        links.append(_Link(reader, writer, pending))
    return links


def _settle(outcome: Outcome, fut: asyncio.Future) -> None:
    if fut.done() and not fut.cancelled():
        outcome.done, outcome.body, outcome.nbytes_in = fut.result()


async def run_open(
    host: str,
    port: int,
    requests: list[Request],
    offsets: list[float],
    *,
    n_conns: int,
    grace_s: float = 10.0,
) -> list[Outcome]:
    """Send ``requests[i]`` at ``offsets[i]``; wait *grace_s* for stragglers."""
    links = await _connect(host, port, n_conns)
    outcomes: list[Outcome] = []
    futures: list[asyncio.Future] = []
    start = time.perf_counter() + 0.05
    try:
        for i, (offset, request) in enumerate(zip(offsets, requests)):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            link = links[i % n_conns]
            sent = time.perf_counter()
            futures.append(link.send(request))
            outcomes.append(Outcome(request.rid, due, sent, nbytes_out=len(request.line)))
            if link.writer.transport.get_write_buffer_size() > 1 << 20:
                await link.writer.drain()
        if futures:
            await asyncio.wait(futures, timeout=grace_s)
        for outcome, fut in zip(outcomes, futures):
            _settle(outcome, fut)
    finally:
        for link in links:
            await link.close()
    return outcomes


async def run_closed(
    host: str,
    port: int,
    requests,
    duration_s: float,
    *,
    n_conns: int,
    depth: int,
    timeout_s: float = 10.0,
) -> tuple[list[Outcome], float]:
    """Keep ``n_conns × depth`` requests in flight for *duration_s*.

    *requests* is an iterator; returns the outcomes and the wall time
    from the first send to the last answer.
    """
    links = await _connect(host, port, n_conns)
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    end = start + duration_s

    async def client(link: _Link) -> None:
        while time.perf_counter() < end:
            request = next(requests, None)
            if request is None:
                return
            sent = time.perf_counter()
            fut = link.send(request)
            outcome = Outcome(request.rid, sent, sent, nbytes_out=len(request.line))
            outcomes.append(outcome)
            try:
                await asyncio.wait_for(asyncio.shield(fut), timeout_s)
            except asyncio.TimeoutError:
                return
            _settle(outcome, fut)

    try:
        await asyncio.gather(*(client(link) for link in links for _ in range(depth)))
    finally:
        for link in links:
            await link.close()
    answered = [o.done for o in outcomes if o.done is not None]
    wall = (max(answered) - start) if answered else duration_s
    return outcomes, wall


def latency_ms(outcomes: list[Outcome], q: float) -> float:
    """*q*-th percentile of answered requests' latency from their due time."""
    return percentile([(o.done - o.due) * 1e3 for o in outcomes if o.done is not None], q)


def lateness_ms(outcomes: list[Outcome], q: float) -> float:
    """*q*-th percentile of how late the generator sent each request."""
    return percentile([(o.sent - o.due) * 1e3 for o in outcomes], q)

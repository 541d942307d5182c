"""Micro-batching prediction service: the serving data plane.

:class:`PredictionService` turns many concurrent ``predict`` requests
into few batched evaluations without changing a single output bit:

* **Micro-batching** — the batch loop is work-conserving: it takes the
  first queued request plus whatever else is already queued (up to
  ``max_batch``) and executes at once.  Requests that arrive while a
  batch executes form the next batch, so batches grow with load and no
  request waits on a timer.  A batch is grouped by model and executed
  off the event loop.  Each request inside a batch still runs the
  *exact* per-request ``predictor.predict_vector`` call a direct caller
  would run — batching amortizes model hydration and scheduling, never
  the math — so served predictions are bit-identical to library calls.
* **Response cache** — an LRU keyed by the request fingerprint
  (resolved model content key + exact probe bytes + sampling params,
  see :func:`~repro.serving.protocol.request_fingerprint`).  Because
  equal fingerprints imply equal answers, a cache hit can only ever
  replay the identical response.
* **Admission control** — at most ``queue_limit`` requests may be in
  flight; beyond that, new requests are rejected immediately with a
  429-style response instead of growing an unbounded queue.  It is the
  only depth cap of a plain ``serve`` process.  An optional
  ``admission`` gate (see
  :class:`repro.serving.fleet.admission.KingmanAdmission`) adds
  shedding on predicted Kingman wait (utilization × variability) — the
  policy every fleet shard runs — and ``queue_limit`` stays on beside
  it as the hard depth backstop, covering the gate's ``min_samples``
  warmup window when it admits unconditionally.
* **Deadlines** — every request carries a deadline (client-supplied or
  ``default_deadline_s``); a request that cannot be answered in time
  resolves to a 504-style response, its slot is reclaimed, and it is
  never computed afterwards.

Batches execute on one dedicated worker thread in this process; to
put serving on more cores, run a fleet (:mod:`repro.serving.fleet`).

Metrics (``serving.*``) and the ``serving.batch`` span are documented
in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..errors import ArtifactError, ValidationError
from .config import ServingConfig
from .protocol import (
    MAX_SAMPLES,
    decode_probe,
    encode_array,
    error,
    ok,
    probe_fingerprint,
)
from .registry import ModelRegistry

__all__ = ["ServingConfig", "PredictionService"]


@dataclass
class _Request:
    """One queued predict request awaiting batch execution.

    ``probe`` is the decoded :data:`~repro.core.sketch.Probe` — a
    :class:`~repro.core.sketch.SampleProbe` for full-campaign requests,
    a :class:`~repro.core.sketch.SketchProbe` for percentile-only ones.
    """

    fingerprint: str
    model_key: str
    probe: object
    n_samples: int
    sample_seed: int
    future: asyncio.Future = field(repr=False)


_SHUTDOWN = object()


class PredictionService:
    """Async facade over the registry + batch loop (one per event loop)."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServingConfig | None = None,
        *,
        admission=None,
    ) -> None:
        """Create a service over *registry*; ``await start()`` before use.

        An *admission* gate (duck-typed to
        :class:`~repro.serving.fleet.admission.KingmanAdmission`) adds
        queueing-aware shedding in front of the fixed ``queue_limit``
        cap: its ``admit()`` decides per arrival and
        ``observe(service_s)`` is fed measured per-request service
        times, with ``queue_limit`` kept as the hard depth backstop.
        """
        self.registry = registry
        self.config = config or ServingConfig()
        self.admission = admission
        self._cache: OrderedDict[str, dict] = OrderedDict()
        self._queue: asyncio.Queue | None = None
        self._batch_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._pending = 0
        self._stats = {
            "requests": 0,
            "rejected": 0,
            "expired": 0,
            "errors": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "batches": 0,
            "batched_requests": 0,
            "drained": 0,
        }
        self._batch_sizes: dict[int, int] = {}

    async def start(self) -> None:
        """Bind to the running loop and start the batch task (idempotent)."""
        if self._batch_task is not None:
            return
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving"
        )
        self._batch_task = asyncio.get_running_loop().create_task(self._batch_loop())

    async def close(self) -> None:
        """Drain and stop the batch loop; shut down execution resources.

        Every request enqueued before (or racing) the shutdown marker is
        answered: the batch loop executes what it can, and anything
        still queued afterwards resolves to a 503 response rather than a
        silently dropped future — the invariant graceful shard drain
        relies on.
        """
        if self._batch_task is None:
            return
        await self._queue.put(_SHUTDOWN)
        await self._batch_task
        self._batch_task = None
        while not self._queue.empty():
            leftover = self._queue.get_nowait()
            if leftover is _SHUTDOWN:
                continue
            if not leftover.future.done():
                self._stats["drained"] += 1
                leftover.future.set_result(
                    error(503, "service is shutting down; request not executed")
                )
        self._executor.shutdown(wait=True)
        self._executor = None

    def stats(self) -> dict:
        """Snapshot of request/cache/batch counters (plain ints)."""
        snapshot = dict(self._stats)
        snapshot["pending"] = self._pending
        snapshot["batch_size_histogram"] = {
            str(size): count for size, count in sorted(self._batch_sizes.items())
        }
        return snapshot

    async def submit(self, payload: dict) -> dict:
        """Answer one predict request (validate, cache, batch, respond).

        Always returns a response dict with a ``status`` field; protocol
        and capacity problems become 4xx/5xx responses, never exceptions.
        """
        if self._batch_task is None:
            await self.start()
        self._stats["requests"] += 1
        obs.counter("serving.requests")
        t0 = time.perf_counter()
        try:
            # _parse may read a ~100-byte tag JSON when the model is
            # addressed by tag rather than content key; an executor hop
            # would cost more latency than the read itself, and the
            # batcher right below this already amortizes real disk work.
            request, deadline_s = self._parse(payload)  # repro: noqa[ASYNC002]
        except ValidationError as exc:
            return error(400, str(exc))
        except ArtifactError as exc:
            return error(404, str(exc))

        if self.config.cache_enabled:
            hit = self._cache.get(request.fingerprint)
            if hit is not None:
                self._cache.move_to_end(request.fingerprint)
                self._stats["cache_hits"] += 1
                obs.counter("serving.cache.hits")
                obs.observe("serving.latency_s", time.perf_counter() - t0)
                response = dict(hit)
                response["cached"] = True
                return response
            self._stats["cache_misses"] += 1
            obs.counter("serving.cache.misses")

        # The depth cap always applies — with an admission gate it is
        # the hard backstop (per docs/SERVING.md), which matters during
        # the gate's min_samples warmup when it admits unconditionally.
        if self._pending >= self.config.queue_limit:
            self._stats["rejected"] += 1
            obs.counter("serving.rejected")
            return error(
                429,
                f"queue full ({self.config.queue_limit} requests in flight); "
                "retry later",
            )
        if self.admission is not None and not self.admission.admit():
            self._stats["rejected"] += 1
            obs.counter("serving.rejected")
            return error(
                429,
                "shed before the Kingman knee "
                f"({self.admission.describe()}); retry later",
            )

        self._pending += 1
        obs.gauge("serving.queue_depth", self._pending)
        await self._queue.put(request)
        try:
            response = await asyncio.wait_for(request.future, timeout=deadline_s)
        except asyncio.TimeoutError:
            self._stats["expired"] += 1
            obs.counter("serving.expired")
            return error(504, f"deadline of {deadline_s}s expired")
        finally:
            self._pending -= 1
            obs.gauge("serving.queue_depth", self._pending)

        if response.get("status") == 200 and self.config.cache_enabled:
            self._cache[request.fingerprint] = dict(response)
            self._cache.move_to_end(request.fingerprint)
            while len(self._cache) > self.config.cache_size:
                self._cache.popitem(last=False)
        obs.observe("serving.latency_s", time.perf_counter() - t0)
        return response

    def _parse(self, payload: dict) -> tuple[_Request, float]:
        """Validate a raw predict payload into a :class:`_Request`.

        The body must carry a v2 ``probe`` object (with its
        ``probe_kind`` discriminator); a v1 body — a bare ``campaign``
        field — is a :class:`~repro.errors.ValidationError`.
        """
        if not isinstance(payload, dict):
            raise ValidationError("request must be a JSON object")
        model_name = payload.get("model")
        if not isinstance(model_name, str) or not model_name:
            raise ValidationError("request needs a 'model' tag or content key")
        model_key = self.registry.resolve(model_name)
        if "probe" not in payload:
            raise ValidationError(
                "predict request needs a 'probe' object (protocol v2); "
                "bare 'campaign' bodies were removed in 3.0.0"
            )
        probe = decode_probe(payload["probe"])
        # Every field is checked here, before the request joins a batch:
        # a bad value that failed inside the batch would fail its
        # batch-mates with it.  JSON booleans are Python ints, so they
        # are rejected explicitly.
        n_samples = payload.get("n_samples", 0)
        sample_seed = payload.get("sample_seed", 0)
        if (
            not isinstance(n_samples, int)
            or isinstance(n_samples, bool)
            or not 0 <= n_samples <= MAX_SAMPLES
        ):
            raise ValidationError(
                f"n_samples must be an integer in [0, {MAX_SAMPLES}]"
            )
        if (
            not isinstance(sample_seed, int)
            or isinstance(sample_seed, bool)
            or sample_seed < 0
        ):
            raise ValidationError("sample_seed must be a non-negative integer")
        deadline_s = payload.get("deadline_s", self.config.default_deadline_s)
        if (
            not isinstance(deadline_s, (int, float))
            or isinstance(deadline_s, bool)
            or not 0 < deadline_s < math.inf
        ):
            raise ValidationError("deadline_s must be a positive, finite number")
        fingerprint = probe_fingerprint(
            model_key, probe, n_samples=n_samples, sample_seed=sample_seed
        )
        future = asyncio.get_running_loop().create_future()
        return (
            _Request(fingerprint, model_key, probe, n_samples, sample_seed, future),
            float(deadline_s),
        )

    async def _batch_loop(self) -> None:
        """Execute queued requests in work-conserving batches.

        A batch is the first queued request plus whatever else is
        already queued, up to ``max_batch``, and it executes at once.
        Requests that arrive while it executes form the next batch.  A
        request whose future is already done (``submit`` answered 504)
        is dropped here instead of computed.
        """
        while True:
            item = await self._queue.get()
            batch = []
            while item is not _SHUTDOWN:
                if not item.future.done():
                    batch.append(item)
                if len(batch) == self.config.max_batch or self._queue.empty():
                    break
                item = self._queue.get_nowait()
            if batch:
                await self._execute(batch)
            if item is _SHUTDOWN:
                return

    async def _execute(self, batch: list) -> None:
        """Run one batch: group by model, evaluate off-loop, deliver."""
        self._stats["batches"] += 1
        self._stats["batched_requests"] += len(batch)
        self._batch_sizes[len(batch)] = self._batch_sizes.get(len(batch), 0) + 1
        obs.counter("serving.batches")
        obs.counter("serving.batched_requests", len(batch))
        obs.observe("serving.batch_size", len(batch))
        groups: OrderedDict[str, list] = OrderedDict()
        for request in batch:
            groups.setdefault(request.model_key, []).append(request)
        loop = asyncio.get_running_loop()
        for model_key, requests in groups.items():
            t0 = loop.time()
            with obs.span("serving.batch", model=model_key, n_requests=len(requests)):
                try:
                    answered = await loop.run_in_executor(
                        self._executor, self._compute_group, model_key, requests
                    )
                except Exception as exc:  # noqa: BLE001 — batch loop must survive
                    message = f"{type(exc).__name__}: {exc}"
                    # One dict per request: the connection layer writes
                    # each request's own id into its response.
                    answered = [(request, error(500, message)) for request in requests]
            failed = sum(response["status"] == 500 for _, response in answered)
            if failed:
                self._stats["errors"] += failed
                obs.counter("serving.errors", failed)
            if self.admission is not None and answered:
                # Per-request service effort: the group's executor wall
                # time amortized across the requests it answered (batching
                # shares hydration/scheduling, so the amortized cost is
                # the honest per-request figure for the queueing model).
                per_request_s = (loop.time() - t0) / len(answered)
                for _ in answered:
                    self.admission.observe(per_request_s)
            for request, response in answered:
                if not request.future.done():
                    request.future.set_result(response)

    def _compute_group(
        self, model_key: str, requests: list
    ) -> list[tuple[_Request, dict]]:
        """Evaluate one model's requests (runs in the executor thread).

        Returns ``(request, response)`` pairs for the requests computed.
        A request whose future is already done — it expired while its
        batch-mates ran — is skipped right before its call.  That read
        races the loop thread harmlessly: at worst a request expiring
        at that instant is computed and its answer dropped.  A request
        whose own call raises fails alone: a 400 for a
        :class:`~repro.errors.ValidationError` (an input the model
        cannot represent), a 500 otherwise; its batch-mates keep theirs.

        Per-request ``predict_vector`` calls, never a stacked matrix —
        identical math to the direct library path, so served outputs are
        bit-identical regardless of how requests were batched.
        """
        predictor = self.registry.load(model_key)
        answered = []
        for request in requests:
            if request.future.done():
                continue
            try:
                body = self._predict(predictor, model_key, request)
            except ValidationError as exc:
                body = error(400, str(exc))
            except Exception as exc:  # noqa: BLE001 — fails this request only
                body = error(500, f"{type(exc).__name__}: {exc}")
            answered.append((request, body))
        return answered

    @staticmethod
    def _predict(predictor, model_key: str, request: _Request) -> dict:
        """One request's 200 body: its vector and, if asked, its draws."""
        vector = predictor.predict_vector(request.probe)
        body = ok(
            model_key=model_key,
            representation=type(predictor.representation).__name__,
            vector=[float(v) for v in vector],
            cached=False,
        )
        if request.n_samples > 0:
            rng = np.random.default_rng(int(request.sample_seed))
            draws = predictor.representation.reconstruct(
                np.asarray(vector, dtype=np.float64)
            ).sample(request.n_samples, rng=rng)
            body["samples"] = encode_array(draws)
        return body

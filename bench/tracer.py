"""Benchmark-side span recorder: times the program's layers from outside.

The program under test is never edited.  :class:`Tracer` replaces a name
*where it is looked up* — a module global such as
``repro.serving.service.decode_probe`` or a method on a class such as
``ModelRegistry.load`` — with a wrapper that records one span per call:
``(id, name, start, end, parent id, attrs)``.  Parents come from a
context variable, so nesting works across plain calls and across
``await`` inside one asyncio task; work handed to an executor thread
starts a new root.  Spans stay in memory until :meth:`Tracer.dump`.

A layer's *self time* is its span's duration minus the durations of its
direct children (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict

__all__ = ["Tracer", "self_times", "durations_by_name", "load_spans"]


class Tracer:
    """In-memory span buffer plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=-1
        )
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Record a span named *name* around every call of ``owner.attr``.

        *attrs*, when given, is called as ``attrs(args, kwargs, result)``
        after the call and returns a small JSON-safe dict kept with the
        span (for example the probe kind, or a request id).
        """
        fn = getattr(owner, attr)
        if inspect.iscoroutinefunction(fn):
            wrapper = self._async_wrapper(fn, name, attrs)
        else:
            wrapper = self._sync_wrapper(fn, name, attrs)
        # An inherited method is shadowed on *owner* and deleted again on
        # restore, so the base class is never touched.
        own = owner.__dict__.get(attr) if isinstance(owner, type) else fn
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, own))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _sync_wrapper(self, fn, name, attrs):
        spans, ids, current = self.spans, self._ids, self._current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            token = current.set(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                parent = token.old_value
                current.reset(token)
                extra = attrs(args, kwargs, result) if attrs else None
                spans.append((sid, name, t0, t1, _parent(parent), extra))

        return wrapper

    def _async_wrapper(self, fn, name, attrs):
        spans, ids, current = self.spans, self._ids, self._current

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid = next(ids)
            token = current.set(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                parent = token.old_value
                current.reset(token)
                extra = attrs(args, kwargs, result) if attrs else None
                spans.append((sid, name, t0, t1, _parent(parent), extra))

        return wrapper

    def dump(self, path) -> None:
        """Write the buffered spans as JSON lines."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, extra in self.spans:
                fh.write(json.dumps([sid, name, t0, t1, parent, extra]) + "\n")


def _parent(old_value) -> int:
    """Parent id from a context-variable token (``-1`` for a root span)."""
    return -1 if old_value is contextvars.Token.MISSING else old_value


def load_spans(path) -> list[tuple]:
    """Read spans written by :meth:`Tracer.dump`."""
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def durations_by_name(spans) -> dict[str, list[float]]:
    """Span durations in seconds, grouped by span name."""
    out: dict[str, list[float]] = defaultdict(list)
    for _sid, name, t0, t1, _parent_id, _extra in spans:
        out[name].append(t1 - t0)
    return out


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for _sid, _name, t0, t1, parent, _extra in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for sid, name, t0, t1, _parent_id, _extra in spans:
        out[name] += (t1 - t0) - child_time.get(sid, 0.0)
    return dict(out)

"""Versioned JSONL serialization of one observability run.

A trace file is one JSON object per line, written in a deterministic
order so that two runs with identical control flow differ only in
timing values:

1. exactly one ``meta`` record (first line) carrying the schema name,
   schema version and caller-supplied run metadata;
2. every ``counter``, then ``gauge``, then ``histogram`` record, each
   group sorted by metric name;
3. every ``span`` record, sorted by ``seq`` (span-start program order).

All objects are serialized with sorted keys.  The schema is versioned
(:data:`TRACE_SCHEMA_VERSION`); the stability promise and the full field
reference live in ``docs/OBSERVABILITY.md``.

:func:`validate_trace` is the same checker the tests use: it returns a
list of human-readable problems (empty means schema-valid), so tools can
reject foreign or torn files without guessing.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import tracing

__all__ = [
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "trace_records",
    "write_trace",
    "read_trace",
    "validate_trace",
    "stage_totals",
    "cell_walls",
]

#: Schema identifier written into (and required of) every trace file.
TRACE_SCHEMA = "repro.obs.trace"

#: Current trace schema version; bump on any breaking field change.
TRACE_SCHEMA_VERSION = 1

#: Required fields (name -> type) per record type.
_REQUIRED: dict[str, dict[str, type]] = {
    "meta": {"schema": str, "version": int},
    "counter": {"name": str, "value": int},
    "gauge": {"name": str, "value": (int, float)},
    "histogram": {
        "name": str,
        "count": int,
        "total": (int, float),
        "min": (int, float),
        "max": (int, float),
        "mean": (int, float),
        "buckets": dict,
    },
    "span": {
        "name": str,
        "seq": int,
        "parent": int,
        "t_start_s": (int, float),
        "dur_s": (int, float),
        "pid": int,
        "thread": str,
    },
}


def trace_records(*, meta: dict | None = None) -> list[dict]:
    """The current run as an ordered list of schema records.

    Reads the process-wide registry snapshot and event buffer; *meta*
    entries are merged into the leading ``meta`` record.
    """
    head: dict = {"type": "meta", "schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION}
    if meta:
        for key, value in meta.items():
            head.setdefault(key, value)
    records = [head]
    snap = tracing.get_registry().snapshot()
    for name, value in snap["counters"].items():
        records.append({"type": "counter", "name": name, "value": value})
    for name, value in snap["gauges"].items():
        records.append({"type": "gauge", "name": name, "value": value})
    for name, summary in snap["histograms"].items():
        records.append({"type": "histogram", "name": name, **summary})
    records.extend(sorted(tracing.events(), key=lambda e: e["seq"]))
    return records


def write_trace(path, *, meta: dict | None = None) -> Path:
    """Write the current run's trace to *path* (JSONL) and return it."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for record in trace_records(meta=meta):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return out


def read_trace(path) -> list[dict]:
    """Parse a JSONL trace file into its record list (no validation)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def validate_trace(records: list[dict]) -> list[str]:
    """Schema-check parsed trace records; return problems (empty = valid)."""
    problems: list[str] = []
    if not records:
        return ["empty trace"]
    head = records[0]
    if head.get("type") != "meta":
        problems.append("first record must have type 'meta'")
    elif head.get("schema") != TRACE_SCHEMA:
        problems.append(f"unknown schema {head.get('schema')!r}")
    elif head.get("version") != TRACE_SCHEMA_VERSION:
        problems.append(f"unsupported trace version {head.get('version')!r}")
    seen_seq: set[int] = set()
    for i, record in enumerate(records):
        rtype = record.get("type")
        required = _REQUIRED.get(rtype)  # type: ignore[arg-type]
        if required is None:
            problems.append(f"record {i}: unknown type {rtype!r}")
            continue
        if rtype == "meta" and i > 0:
            problems.append(f"record {i}: duplicate meta record")
        for field, ftype in required.items():
            if field not in record:
                problems.append(f"record {i} ({rtype}): missing field {field!r}")
            elif not isinstance(record[field], ftype) or isinstance(record[field], bool):
                problems.append(
                    f"record {i} ({rtype}): field {field!r} has type "
                    f"{type(record[field]).__name__}"
                )
        if rtype == "span" and isinstance(record.get("seq"), int):
            if record["seq"] in seen_seq:
                problems.append(f"record {i} (span): duplicate seq {record['seq']}")
            seen_seq.add(record["seq"])
    return problems


def stage_totals(records: list[dict]) -> dict[str, float]:
    """Per-stage wall-time totals from ``stage`` spans, in first-seen order.

    The grid runners open one ``stage`` span (``featurize``, then ``fit``
    and ``score`` per cell) around each phase, and the experiment CLI
    and ``tools/bench_report.py`` add ``measure``; these totals are the
    run's phase breakdown (``run_summary()["stages_s"]``).
    """
    totals: dict[str, float] = {}
    for record in records:
        if record.get("type") == "span" and record.get("name") == "stage":
            stage = str(record.get("attrs", {}).get("stage", "?"))
            totals[stage] = totals.get(stage, 0.0) + float(record["dur_s"])
    return totals


def cell_walls(records: list[dict]) -> dict[str, float]:
    """Wall time per grid cell from ``cell`` spans.

    Keys are ``"<representation>+<model>"``; a repeated cell accumulates
    (the grid runners emit each cell once).
    """
    walls: dict[str, float] = {}
    for record in records:
        if record.get("type") == "span" and record.get("name") == "cell":
            attrs = record.get("attrs", {})
            key = f"{attrs.get('representation', '?')}+{attrs.get('model', '?')}"
            walls[key] = walls.get(key, 0.0) + float(record["dur_s"])
    return walls

"""Trace persistence: JSON serialization and deserialization.

The paper's tracing server can run remotely; spans are published over the
wire and traces outlive the profiled process.  This module provides the
equivalent durability: a lossless JSON round-trip for traces so profiles
can be archived and re-analyzed offline (the analysis pipeline consumes
traces, not live runs).

Both serializers stream straight from the trace's columnar
:class:`~repro.tracing.table.SpanTable` — rows are read with the
table's tag/log accessors and no :class:`Span` objects (or view
flyweights) are materialized.  Deserialization is the mirror image: span
dicts are ingested with :meth:`SpanTable.append_row`, never constructing
intermediate spans.
"""

from __future__ import annotations

import json
from typing import Any

from repro.tracing.span import Level, LogEntry, SpanKind
from repro.tracing.table import NONE_ID, SpanTable
from repro.tracing.trace import Trace

#: Format marker for forward compatibility.
FORMAT_VERSION = 1


def _row_to_dict(table: SpanTable, row: int) -> dict[str, Any]:
    """One span dict straight from the columns (no view materialized)."""
    parent_id = table.parent_id[row]
    correlation_id = table.correlation_id[row]
    return {
        "name": table.name_of(row),
        "start_ns": table.start_ns[row],
        "end_ns": table.end_ns[row],
        "level": table.level_of(row).name,
        "span_id": table.span_id[row],
        "trace_id": table.trace_id[row],
        "parent_id": None if parent_id == NONE_ID else parent_id,
        "kind": table.kind_of(row).value,
        "correlation_id": None if correlation_id == NONE_ID else correlation_id,
        "tags": {k: _jsonable(v) for k, v in table.iter_tags(row)},
        "logs": _logs_to_list(table.peek_logs(row)),
    }


def _logs_to_list(logs: list[LogEntry]) -> list[dict[str, Any]]:
    return [
        {
            "timestamp_ns": entry.timestamp_ns,
            "fields": {str(k): _jsonable(v) for k, v in entry.fields.items()},
        }
        for entry in logs
    ]


def trace_to_json(trace: Trace) -> str:
    """Serialize a trace (spans + metadata) to a JSON document."""
    table = trace.table
    return json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "trace_id": trace.trace_id,
            "metadata": {k: _jsonable(v) for k, v in trace.metadata.items()},
            "spans": [_row_to_dict(table, row) for row in range(len(table))],
        }
    )


def trace_from_json(document: str) -> Trace:
    """Reconstruct a trace from :func:`trace_to_json` output."""
    return trace_from_dict(json.loads(document))


def trace_from_dict(data: dict[str, Any]) -> Trace:
    """Reconstruct a trace from an already-parsed JSON document."""
    if not isinstance(data, dict):
        raise ValueError("not a trace document (expected a JSON object)")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    trace = Trace(trace_id=data["trace_id"], metadata=dict(data["metadata"]))
    # Columnar bulk ingest (not Trace.add) keeps each span's original
    # trace_id; the trace's lazy index is built on first query after
    # loading.
    table = trace.table
    for s in data["spans"]:
        table.append_row(
            name=s["name"],
            start_ns=s["start_ns"],
            end_ns=s["end_ns"],
            level=Level[s["level"]],
            span_id=s["span_id"],
            trace_id=s.get("trace_id", 0),
            parent_id=s.get("parent_id"),
            kind=SpanKind(s.get("kind", "internal")),
            correlation_id=s.get("correlation_id"),
            tags=s.get("tags") or None,
            logs=[
                LogEntry(timestamp_ns=e["timestamp_ns"], fields=dict(e["fields"]))
                for e in s.get("logs", [])
            ]
            or None,
        )
    return trace


def trace_to_chrome(trace: Trace) -> str:
    """Serialize to the Chrome ``trace_event`` format (Perfetto-openable).

    Each span becomes one complete ("X") event on a per-level thread
    lane; metadata ("M") events name the process and lanes so Perfetto /
    ``chrome://tracing`` renders the stack levels in order; launch /
    execution span pairs are joined by flow ("s"/"f") arrows keyed on
    their ``correlation_id`` — the across-stack picture, visually.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": trace.trace_id,
            "args": {
                "name": str(
                    trace.metadata.get("model")
                    or trace.metadata.get("application")
                    or f"trace {trace.trace_id}"
                )
            },
        }
    ]
    for level in trace.levels_present():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": trace.trace_id,
                "tid": int(level),
                "args": {"name": f"L{int(level)} {level.name}"},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": trace.trace_id,
                "tid": int(level),
                "args": {"sort_index": int(level)},
            }
        )
    table = trace.table
    for row in range(len(table)):
        start_ns = table.start_ns[row]
        ts_us = start_ns / 1e3  # chrome uses microseconds
        level = table.level_of(row)
        kind = table.kind_of(row)
        parent_id = table.parent_id[row]
        correlation_id = table.correlation_id[row]
        events.append(
            {
                "name": table.name_of(row),
                "cat": level.name,
                "ph": "X",
                "ts": ts_us,
                "dur": (table.end_ns[row] - start_ns) / 1e3,
                "pid": trace.trace_id,
                "tid": int(level),
                "args": {
                    "span_id": table.span_id[row],
                    "parent_id": None if parent_id == NONE_ID else parent_id,
                    "kind": kind.value,
                    "correlation_id": (
                        None if correlation_id == NONE_ID else correlation_id
                    ),
                    **{k: _jsonable(v) for k, v in table.iter_tags(row)},
                },
            }
        )
        if correlation_id != NONE_ID and kind in (
            SpanKind.LAUNCH,
            SpanKind.EXECUTION,
        ):
            flow = {
                "name": "launch->execution",
                "cat": "correlation",
                "id": correlation_id,
                "pid": trace.trace_id,
                "tid": int(level),
                "ts": ts_us,
            }
            if kind == SpanKind.LAUNCH:
                events.append({**flow, "ph": "s"})
            else:
                events.append({**flow, "ph": "f", "bp": "e"})
    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}, indent=None
    )


def save_trace(trace: Trace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(trace_to_json(trace))


def load_trace(path: str) -> Trace:
    with open(path) as fh:
        return trace_from_json(fh.read())


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)

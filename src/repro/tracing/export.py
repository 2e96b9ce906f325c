"""Trace persistence: the JSON trace file and the Chrome export.

The paper's tracing server can run remotely; spans are published over the
wire and traces outlive the profiled process.  This module provides the
equivalent durability: a lossless JSON round-trip for traces so profiles
can be archived and re-analyzed offline (the analysis pipeline consumes
traces, not live runs).

A trace file (format v2) is a copy of the trace's columnar
:class:`~repro.tracing.table.SpanTable`: one JSON list per column, the
name and tag-key pools, one flat list of tag values and the sparse logs
(:meth:`SpanTable.to_columns`), inside an envelope holding the format
version, the trace id and the metadata.  Loading extends every column
once (:meth:`SpanTable.extend_columns`), after checking the whole
document.  Version 1 files, one JSON object per span, still load: they
go through :meth:`SpanTable.append_rows` in bounded batches.  Any
malformed file raises one ``ValueError``.

The Chrome ``trace_event`` export reads the table's rows straight from
its columns; no ``Span`` or view is built.
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import itemgetter
from typing import Any

from repro.tracing.span import Level, LogEntry, SpanKind
from repro.tracing.table import (
    JSON_SCALARS,
    KINDS,
    NONE_ID,
    jsonable,
)
from repro.tracing.trace import Trace

#: The version every trace file is written in.
FORMAT_VERSION = 2

#: Rows per `SpanTable.append_rows` batch when loading a v1 file.
_V1_BATCH = 4096

_LEVEL_CODES = {level.name: int(level) for level in Level}
_KIND_CODES = {kind.value: code for code, kind in enumerate(KINDS)}
_LAUNCH = _KIND_CODES[SpanKind.LAUNCH.value]
_EXECUTION = _KIND_CODES[SpanKind.EXECUTION.value]


def trace_to_json(trace: Trace) -> str:
    """Serialize a trace (columns + metadata) to a JSON document."""
    return json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "trace_id": trace.trace_id,
            "metadata": {k: jsonable(v) for k, v in trace.metadata.items()},
            "table": trace.table.to_columns(),
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
    if version not in (1, FORMAT_VERSION):
        raise ValueError(
            f"unsupported trace format version {version!r} "
            f"(expected 1 or {FORMAT_VERSION})"
        )
    trace_id, metadata = data.get("trace_id"), data.get("metadata", {})
    if type(trace_id) is not int:
        raise ValueError("trace 'trace_id' is not an integer")
    if not isinstance(metadata, dict):
        raise ValueError("trace 'metadata' is not a JSON object")
    trace = Trace(trace_id=trace_id, metadata=dict(metadata))
    if version == 1:
        _trace_from_v1(data.get("spans"), trace)
    else:
        trace.table.extend_columns(data.get("table"))
    return trace


def _trace_from_v1(spans: Any, trace: Trace) -> None:
    """Load a v1 document's per-span objects into ``trace``, a few
    thousand rows per :meth:`SpanTable.append_rows` call (each span
    keeps its own trace id)."""
    if not isinstance(spans, list):
        raise ValueError("v1 trace 'spans' is not a list")
    table = trace.table
    for first in range(0, len(spans), _V1_BATCH):
        try:
            batch = [_v1_row(span) for span in spans[first:first + _V1_BATCH]]
            for trace_id, group in groupby(batch, itemgetter(0)):
                group = list(group)
                table.append_rows(
                    [row for _, row, _ in group], trace_id,
                    {i: logs for i, (_, _, logs) in enumerate(group) if logs},
                )
        except (KeyError, TypeError, OverflowError) as err:
            raise ValueError(
                f"malformed v1 span in spans[{first}:{first + _V1_BATCH}]: "
                f"{type(err).__name__}: {err}"
            ) from None
    if len(set(table.span_id)) != len(table):
        raise ValueError("trace holds a duplicated span id")


def _v1_row(span: Any) -> tuple[int, tuple, list[LogEntry]]:
    """(trace id, row tuple, logs) of one v1 span object."""
    if not isinstance(span, dict):
        raise TypeError(f"a span is a {type(span).__name__}, not an object")
    tags = span.get("tags") or {}
    if not isinstance(tags, dict):
        raise TypeError("a span's 'tags' is not an object")
    parent_id = span.get("parent_id")
    correlation_id = span.get("correlation_id")
    row = (
        span["name"], span["start_ns"], span["end_ns"],
        _LEVEL_CODES[span["level"]], _KIND_CODES[span.get("kind", "internal")],
        span["span_id"],
        NONE_ID if parent_id is None else parent_id,
        NONE_ID if correlation_id is None else correlation_id,
        tuple(tags), tuple(tags.values()),
    )
    logs = [
        LogEntry(timestamp_ns=entry["timestamp_ns"],
                 fields=dict(entry["fields"]))
        for entry in span.get("logs", ())
    ]
    return span.get("trace_id", 0), row, logs


def trace_to_chrome(trace: Trace) -> str:
    """Serialize to the Chrome ``trace_event`` format (Perfetto-openable).

    Each span becomes one complete ("X") event on a per-level thread
    lane; metadata ("M") events name the process and lanes so Perfetto /
    ``chrome://tracing`` renders the stack levels in order; launch /
    execution span pairs are joined by flow ("s"/"f") arrows keyed on
    their ``correlation_id`` — the across-stack picture, visually.
    """
    pid = trace.trace_id
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {
                "name": str(
                    trace.metadata.get("model")
                    or trace.metadata.get("application")
                    or f"trace {pid}"
                )
            },
        }
    ]
    table = trace.table
    for code in sorted(set(table.level[:len(table)])):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": code,
                "args": {"name": f"L{code} {Level(code).name}"},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": code,
                "args": {"sort_index": code},
            }
        )
    level_names = {int(level): level.name for level in Level}
    kind_values = [kind.value for kind in KINDS]
    append = events.append
    for name, start_ns, end_ns, level, kind, span_id, parent_id, \
            correlation_id, keys, values in table.iter_rows():
        ts_us = start_ns / 1e3  # chrome uses microseconds
        args = {
            "span_id": span_id,
            "parent_id": None if parent_id == NONE_ID else parent_id,
            "kind": kind_values[kind],
            "correlation_id": (
                None if correlation_id == NONE_ID else correlation_id
            ),
        }
        if keys:
            args.update(zip(keys, [
                value if type(value) in JSON_SCALARS else jsonable(value)
                for value in values
            ]))
        append(
            {
                "name": name,
                "cat": level_names[level],
                "ph": "X",
                "ts": ts_us,
                "dur": (end_ns - start_ns) / 1e3,
                "pid": pid,
                "tid": level,
                "args": args,
            }
        )
        if correlation_id != NONE_ID and kind in (_LAUNCH, _EXECUTION):
            flow = {
                "name": "launch->execution",
                "cat": "correlation",
                "id": correlation_id,
                "pid": pid,
                "tid": level,
                "ts": ts_us,
            }
            if kind == _LAUNCH:
                append({**flow, "ph": "s"})
            else:
                append({**flow, "ph": "f", "bp": "e"})
    # Every value is a scalar or went through `jsonable`, so nothing can
    # be circular: skipping the encoder's cycle check saves ~8%.
    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}, check_circular=False
    )


def save_trace(trace: Trace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(trace_to_json(trace))


def load_trace(path: str) -> Trace:
    with open(path) as fh:
        return trace_from_json(fh.read())

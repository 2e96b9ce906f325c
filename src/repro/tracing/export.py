"""Trace persistence: the JSON trace file and the Chrome export.

The paper's tracing server can run remotely; spans are published over the
wire and traces outlive the profiled process.  This module provides the
equivalent durability: a lossless JSON round-trip for traces so profiles
can be archived and re-analyzed offline (the analysis pipeline consumes
traces, not live runs).

A trace file (format v3) is a copy of the trace's columnar
:class:`~repro.tracing.table.SpanTable` (:meth:`SpanTable.to_columns`),
inside an envelope holding the format version, the trace id and the
metadata: each integer column as ``{typecode, length, data}`` with
``data`` the base64 of its little-endian bytes, the name and tag-key
pools, the tag values as a ``value_pool`` of distinct values plus one
packed ``value_codes`` column, and the sparse logs.  Loading decodes the
columns, checks the whole document and extends every column once
(:meth:`SpanTable.extend_columns`).  Version 2 files (the same columns
as JSON lists, and a flat list of tag values) load through the same
checks, and version 1 files, one JSON object per span, through
:meth:`SpanTable.append_rows` in bounded batches.  Any malformed file
raises one ``ValueError``.

The Chrome ``trace_event`` export writes exactly the bytes ``json.dumps``
would write for one dict per event, without building those dicts: it
encodes each column once (names per pool entry, levels and kinds per
code, times and ids over the column slices), takes the tag text from the
table's value pool (each entry a (schema, key) column uses once; a
loaded v3 file's own pool and codes), writes each event from one
template, and joins the events into the one document-sized string it
allocates.
"""

from __future__ import annotations

import json
from itertools import groupby, repeat
from operator import itemgetter, sub, truediv
from typing import Any, Sequence

import numpy as np

from repro.tracing.span import Level, LogEntry, SpanKind
from repro.tracing.table import (FORMAT_VERSION, KINDS, NONE_ID, SpanTable,
                                 json_text, json_texts, jsonable)
from repro.tracing.trace import Trace

#: Rows per `SpanTable.append_rows` batch when loading a v1 file.
_V1_BATCH = 4096

_LEVEL_CODES = {level.name: int(level) for level in Level}
_KIND_CODES = {kind.value: code for code, kind in enumerate(KINDS)}
_LAUNCH = _KIND_CODES[SpanKind.LAUNCH.value]
_EXECUTION = _KIND_CODES[SpanKind.EXECUTION.value]

#: The fields every complete event's ``args`` opens with, in order.
_ARGS = ("span_id", "parent_id", "kind", "correlation_id")


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
    if version not in (1, 2, FORMAT_VERSION):
        raise ValueError(
            f"unsupported trace format version {version!r} "
            f"(this reader reads 1, 2 and {FORMAT_VERSION})"
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
        trace.table.extend_columns(data.get("table"), version)
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

    The text is exactly what ``json.dumps`` writes for the document, but
    no dict is built per event: each column is encoded once (see
    :func:`_complete_events`), and the only document-sized string is the
    final join.
    """
    pid, table = trace.trace_id, trace.table
    n = len(table)
    name = str(trace.metadata.get("model")
               or trace.metadata.get("application") or f"trace {pid}")
    meta = [{"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": name}}]
    for code in sorted(set(table.level[:n])):
        meta += (
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": code,
             "args": {"name": f"L{code} {Level(code).name}"}},
            {"name": "thread_sort_index", "ph": "M", "pid": pid,
             "tid": code, "args": {"sort_index": code}},
        )
    pieces = ['{"traceEvents": [' + ", ".join(map(json_text, meta))]
    if n:
        pieces += _complete_events(table, n, json_text(pid))
    pieces[-1] += '], "displayTimeUnit": "ms"}'
    return ", ".join(pieces)


def _complete_events(table: SpanTable, n: int, pid: str) -> list[str]:
    """The first ``n`` rows' "X" events, one string per row, each
    followed by the row's flow event if it has one.

    Every part of an event is encoded once per column, never per field:
    names once per pool entry, ``cat``/``tid`` once per level and
    ``kind`` once per kind code, each distinct duration once, start times
    with ``float.__repr__`` and ids with ``int.__repr__`` over the column,
    and tags one (schema, key) column at a time, each value-pool entry
    the column uses once (the pool merges only values of equal JSON
    text).  One fixed template then writes each event (``pid`` is the
    encoded process id).
    """
    names = table.pools()[0]
    name_ids, levels, kinds = table.name_id[:n], table.level[:n], table.kind[:n]
    starts, correlations = table.start_ns[:n], table.correlation_id[:n]
    names = [json_text(name) for name in names[:max(name_ids) + 1]]
    cats = {code: json_text(Level(code).name) for code in set(levels)}
    tids = list(map({code: repr(code) for code in cats}.__getitem__, levels))
    ts = list(map(float.__repr__, map(truediv, starts, repeat(1e3))))
    # Python ints: end - start can pass the int64 range.
    durations = list(map(sub, table.end_ns[:n], starts))
    durs = {ns: repr(ns / 1e3) for ns in set(durations)}
    args = [
        list(map(int.__repr__, table.span_id[:n])),
        _ids(table.parent_id[:n]),
        list(map([json_text(kind.value) for kind in KINDS].__getitem__, kinds)),
        _ids(correlations),
    ]
    # Flow events read the raw correlation ids: a tag below may replace
    # the one in ``args``.
    flows = [""] * n
    kind_codes = np.frombuffer(kinds, dtype=np.int8)
    linked = np.frombuffer(correlations, dtype=np.int64) != NONE_ID
    cids = args[3]
    for code, phase in ((_LAUNCH, '"ph": "s"'),
                        (_EXECUTION, '"ph": "f", "bp": "e"')):
        rows = np.flatnonzero((kind_codes == code) & linked).tolist()
        for row, text in zip(rows, [
            f', {{"name": "launch->execution", "cat": "correlation", '
            f'"id": {cids[r]}, "pid": {pid}, "tid": {tids[r]}, '
            f'"ts": {ts[r]}, {phase}}}'
            for r in rows
        ]):
            flows[row] = text
    # Tags from the value pool: each entry a (schema, key) column uses is
    # encoded once, after the column's head, and the codes pick the texts.
    pool, codes = table.value_pool(n)
    texts = np.empty(len(pool), dtype=object)
    starts = np.frombuffer(table.tag_start[:n], dtype=np.int64)

    def column_text(cells: np.ndarray, head: str) -> list[str]:
        column = codes[cells]
        used = np.unique(column)
        texts[used] = list(map(head.__add__, json_texts(
            list(map(pool.__getitem__, used.tolist())))))
        return texts[column].tolist()

    tags = [""] * n
    for keys, rows in table.schema_groups(n):
        # Where each tag lands in ``args``: a key equal to a fixed field
        # replaces its value in place, and a repeated key keeps its first
        # place and its last value, as a dict update would.
        slot = dict.fromkeys(_ARGS)
        slot.update((key, i) for i, key in enumerate(keys))
        first, rows = starts[rows], rows.tolist()
        for column, field in zip(args, _ARGS):
            if slot[field] is not None:
                field_text = column_text(first + slot[field], "")
                for row, text in zip(rows, field_text):
                    column[row] = text
        # `{key: 0}` as JSON, less the brace and the 0, is the key as
        # json writes it, colon included.
        parts = [
            column_text(first + i, ", " + json_text({key: 0})[1:-2])
            for key, i in list(slot.items())[len(_ARGS):]
        ]
        for row, text in zip(rows, map("".join, zip(*parts))):
            tags[row] = text
    return [
        f'{{"name": {name}, "cat": {cat}, "ph": "X", "ts": {start}, '
        f'"dur": {dur}, "pid": {pid}, "tid": {tid}, "args": {{"span_id": '
        f'{span_id}, "parent_id": {parent_id}, "kind": {kind}, '
        f'"correlation_id": {correlation_id}{tag}}}}}{flow}'
        for name, cat, start, dur, tid, span_id, parent_id, kind,
        correlation_id, tag, flow in zip(
            map(names.__getitem__, name_ids), map(cats.__getitem__, levels),
            ts, map(durs.__getitem__, durations), tids, *args, tags, flows,
        )
    ]


def _ids(column: Sequence[int]) -> list[str]:
    """An id column as JSON text, ``null`` for :data:`NONE_ID`."""
    return ["null" if i == NONE_ID else repr(i) for i in column]


def save_trace(trace: Trace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(trace_to_json(trace))


def load_trace(path: str) -> Trace:
    with open(path) as fh:
        return trace_from_json(fh.read())

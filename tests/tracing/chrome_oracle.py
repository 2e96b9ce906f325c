"""The dict-per-event Chrome ``trace_event`` writer, kept as a test oracle.

``repro.tracing.export.trace_to_chrome`` writes the document one column
at a time; this is the writer it replaced, unchanged but for reading the
rows through :func:`iter_rows`: two dicts per span and one per flow
event, all passed to ``json.dumps``.  The export must
equal it byte for byte (``test_chrome_oracle.py``).  Imported by the
tests as a plain ``chrome_oracle`` module, not from ``repro``.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

from repro.tracing.span import Level, SpanKind
from repro.tracing.table import (
    JSON_SCALARS,
    KINDS,
    NONE_ID,
    SpanTable,
    jsonable,
)
from repro.tracing.trace import Trace

_KIND_CODES = {kind.value: code for code, kind in enumerate(KINDS)}
_LAUNCH = _KIND_CODES[SpanKind.LAUNCH.value]
_EXECUTION = _KIND_CODES[SpanKind.EXECUTION.value]


def iter_rows(table: SpanTable) -> Iterator[tuple]:
    """The rows below the watermark as ``SpanTable.append_rows`` tuples,
    with ``values`` a list (each row's tag values, in key order)."""
    n = len(table)
    names, schemas = table.pools()
    for row, (name_id, start, end, level, kind, span_id, parent_id,
              correlation_id, schema_id) in enumerate(zip(
                  table.name_id[:n], table.start_ns[:n], table.end_ns[:n],
                  table.level[:n], table.kind[:n], table.span_id[:n],
                  table.parent_id[:n], table.correlation_id[:n],
                  table.tag_schema[:n])):
        yield (names[name_id], start, end, level, kind, span_id, parent_id,
               correlation_id, schemas[schema_id],
               [value for _, value in table.iter_tags(row)])


def oracle_trace_to_chrome(trace: Trace) -> str:
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
            correlation_id, keys, values in iter_rows(table):
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

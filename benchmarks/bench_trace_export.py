"""Trace export cost: the file formats and the Chrome export.

The capture is the seven-model ``profile_application`` timeline that
``bench_span_table.py`` measures (models 7, 4, 48, 15, 9, 49, 20 at
batch 1).  Format v3 stores the trace's ``SpanTable`` integer columns as
base64 of their bytes and the tag values as one pool of distinct values
plus a code per value; format v2 stored each column and every tag value
as JSON lists (its writer is ``tests/tracing/trace_v2_oracle.py``), and
format v1 one JSON object per span.  Both still load.  The Chrome export
encodes each column once and writes events from templates; the
reference here builds one dict per event and passes them all to
``json.dumps``, as the export once did.  Asserted, on the same capture:

* loading the v3 file (``json.loads`` plus ingest) is at least
  ``MIN_LOAD_SPEEDUP``x faster than loading the v2 file,
* the v3 file is at least ``MIN_SIZE_CUT`` smaller than the v2 file,
* writing the v3 file is no slower than writing the v2 file, and
* the Chrome export equals the dict-per-event reference byte for byte
  and is at least ``MIN_CHROME_SPEEDUP``x faster.

The Chrome export is timed on the fresh capture (a value pool built on
request) and on the loaded v3 file (the file's pool and codes).
"""

from __future__ import annotations

import gc
import importlib.util
import json
import time
from pathlib import Path
from typing import Iterator

import pytest

from repro.tracing import Level, SpanKind, Trace
from repro.tracing.export import trace_from_json, trace_to_chrome, trace_to_json
from repro.tracing.table import (
    JSON_SCALARS,
    KINDS,
    NONE_ID,
    SpanTable,
    jsonable,
)

MIN_LOAD_SPEEDUP = 2.0
MIN_SIZE_CUT = 0.15
MIN_CHROME_SPEEDUP = 2.0

_ORACLE = Path(__file__).parents[1] / "tests" / "tracing" / "trace_v2_oracle.py"
_spec = importlib.util.spec_from_file_location("trace_v2_oracle", _ORACLE)
trace_v2_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_v2_oracle)


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


def _v1_json(trace: Trace) -> str:
    """``trace`` in format v1: one JSON object per span."""
    table = trace.table
    return json.dumps({
        "format_version": 1,
        "trace_id": trace.trace_id,
        "metadata": {k: jsonable(v) for k, v in trace.metadata.items()},
        "spans": [
            {
                "name": view.name,
                "start_ns": view.start_ns,
                "end_ns": view.end_ns,
                "level": view.level.name,
                "span_id": view.span_id,
                "trace_id": view.trace_id,
                "parent_id": view.parent_id,
                "kind": view.kind.value,
                "correlation_id": view.correlation_id,
                "tags": {k: jsonable(v) for k, v in view.iter_tags()},
                "logs": [
                    {"timestamp_ns": entry.timestamp_ns,
                     "fields": {str(k): jsonable(v)
                                for k, v in entry.fields.items()}}
                    for entry in table.peek_logs(row)
                ],
            }
            for row, view in enumerate(trace.spans)
        ],
    })


def _dict_chrome(trace: Trace) -> str:
    """``trace`` as a Chrome trace, one dict per event."""
    pid, table = trace.trace_id, trace.table
    name = (trace.metadata.get("model") or trace.metadata.get("application")
            or f"trace {pid}")
    events = [{"name": "process_name", "ph": "M", "pid": pid,
               "args": {"name": str(name)}}]
    for code in sorted(set(table.level[:len(table)])):
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": code,
                       "args": {"name": f"L{code} {Level(code).name}"}})
        events.append({"name": "thread_sort_index", "ph": "M", "pid": pid,
                       "tid": code, "args": {"sort_index": code}})
    level_names = {int(level): level.name for level in Level}
    kind_values = [kind.value for kind in KINDS]
    launch, execution = (KINDS.index(SpanKind.LAUNCH),
                         KINDS.index(SpanKind.EXECUTION))
    for name, start, end, level, kind, span_id, parent_id, correlation_id, \
            keys, values in iter_rows(table):
        args = {
            "span_id": span_id,
            "parent_id": None if parent_id == NONE_ID else parent_id,
            "kind": kind_values[kind],
            "correlation_id": (
                None if correlation_id == NONE_ID else correlation_id
            ),
        }
        args.update(zip(keys, [
            value if type(value) in JSON_SCALARS else jsonable(value)
            for value in values
        ]))
        events.append({"name": name, "cat": level_names[level], "ph": "X",
                       "ts": start / 1e3, "dur": (end - start) / 1e3,
                       "pid": pid, "tid": level, "args": args})
        if correlation_id != NONE_ID and kind in (launch, execution):
            flow = {"name": "launch->execution", "cat": "correlation",
                    "id": correlation_id, "pid": pid, "tid": level,
                    "ts": start / 1e3}
            events.append({**flow, "ph": "s"} if kind == launch
                          else {**flow, "ph": "f", "bp": "e"})
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                      check_circular=False)


@pytest.fixture(scope="module")
def capture() -> Trace:
    from repro.core import XSPSession
    from repro.models import get_model

    trace, _ = XSPSession("Tesla_V100", "tensorflow_like").profile_application(
        [(get_model(m).graph, 1) for m in (7, 4, 48, 15, 9, 49, 20)]
    )
    return trace


@pytest.fixture(scope="module")
def documents(capture) -> tuple[str, str, str]:
    return (_v1_json(capture), trace_v2_oracle.trace_to_json(capture),
            trace_to_json(capture))


def _best_s(calls, rounds: int = 7) -> list[float]:
    """Best time of each call.  The calls alternate round by round, so
    every one sees the same machine, and each starts after a full
    collection, so none pays for another's garbage."""
    best = [float("inf")] * len(calls)
    for _ in range(rounds):
        for i, call in enumerate(calls):
            gc.collect()
            start = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def test_load_v3_application_capture(benchmark, documents):
    _, _, v3 = documents
    trace = benchmark(trace_from_json, v3)
    assert trace_to_json(trace) == v3


def test_load_v2_application_capture(benchmark, documents):
    _, v2, v3 = documents
    trace = benchmark(trace_from_json, v2)
    assert trace_to_json(trace) == v3


def test_load_v1_application_capture(benchmark, documents):
    v1, _, v3 = documents
    trace = benchmark.pedantic(trace_from_json, args=(v1,), rounds=3,
                               iterations=1)
    assert trace_to_json(trace) == v3


def test_v3_loads_faster_and_is_smaller_than_v2(documents):
    _, v2, v3 = documents
    v2_s, v3_s = _best_s([lambda: trace_from_json(v2),
                          lambda: trace_from_json(v3)])
    speedup = v2_s / v3_s
    assert speedup >= MIN_LOAD_SPEEDUP, (
        f"a v3 load is only {speedup:.2f}x faster than a v2 load "
        f"({v3_s * 1e3:.0f} ms vs {v2_s * 1e3:.0f} ms)"
    )
    cut = 1 - len(v3) / len(v2)
    assert cut >= MIN_SIZE_CUT, (
        f"the v3 file is only {cut:.1%} smaller "
        f"({len(v3) / 1e6:.2f} MB vs {len(v2) / 1e6:.2f} MB)"
    )


def test_v3_writer_is_no_slower_than_v2(capture):
    v2_s, v3_s = _best_s([lambda: trace_v2_oracle.trace_to_json(capture),
                          lambda: trace_to_json(capture)])
    assert v3_s <= v2_s, (
        f"writing v3 takes {v3_s * 1e3:.0f} ms, writing v2 "
        f"{v2_s * 1e3:.0f} ms"
    )


def test_chrome_export_application_capture(benchmark, capture):
    text = benchmark(trace_to_chrome, capture)
    assert text == _dict_chrome(capture)


def test_chrome_export_loaded_application_capture(benchmark, documents):
    """The export of the loaded v3 file, whose tag text comes from the
    value pool and codes the file holds."""
    loaded = trace_from_json(documents[2])
    text = benchmark(trace_to_chrome, loaded)
    assert text == _dict_chrome(loaded)


def test_chrome_export_is_faster_than_a_dict_per_event(capture):
    assert trace_to_chrome(capture) == _dict_chrome(capture)
    dict_s, column_s = _best_s([lambda: _dict_chrome(capture),
                                lambda: trace_to_chrome(capture)])
    speedup = dict_s / column_s
    assert speedup >= MIN_CHROME_SPEEDUP, (
        f"the Chrome export is only {speedup:.2f}x faster than a dict per "
        f"event ({column_s * 1e3:.0f} ms vs {dict_s * 1e3:.0f} ms)"
    )

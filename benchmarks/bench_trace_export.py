"""Trace file load time and size: format v2 (columns) against v1 (objects).

The capture is the seven-model ``profile_application`` timeline that
``bench_span_table.py`` measures (models 7, 4, 48, 15, 9, 49, 20 at
batch 1).  Format v2 stores the trace's ``SpanTable`` columns, one JSON
list each; format v1 stored one JSON object per span, and is still
readable.  Asserted, on the same capture:

* loading the v2 file (``json.loads`` plus ingest) is at least
  ``MIN_LOAD_SPEEDUP``x faster than loading the v1 file, and
* the v2 file is at least ``MIN_SIZE_RATIO``x smaller.
"""

from __future__ import annotations

import gc
import json
import time

import pytest

from repro.tracing import Trace
from repro.tracing.export import trace_from_json, trace_to_json
from repro.tracing.table import jsonable

MIN_LOAD_SPEEDUP = 3.0
MIN_SIZE_RATIO = 2.0


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


@pytest.fixture(scope="module")
def documents() -> tuple[str, str]:
    from repro.core import XSPSession
    from repro.models import get_model

    trace, _ = XSPSession("Tesla_V100", "tensorflow_like").profile_application(
        [(get_model(m).graph, 1) for m in (7, 4, 48, 15, 9, 49, 20)]
    )
    return _v1_json(trace), trace_to_json(trace)


def _best_load_s(texts: tuple[str, ...], rounds: int = 7) -> list[float]:
    """Best load time of each document.  The loads alternate round by
    round, so every document sees the same machine, and each starts
    after a full collection, so none pays for another's garbage."""
    best = [float("inf")] * len(texts)
    for _ in range(rounds):
        for i, text in enumerate(texts):
            gc.collect()
            start = time.perf_counter()
            trace_from_json(text)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def test_load_v2_application_capture(benchmark, documents):
    _, v2 = documents
    trace = benchmark(trace_from_json, v2)
    assert trace_to_json(trace) == v2


def test_load_v1_application_capture(benchmark, documents):
    v1, v2 = documents
    trace = benchmark.pedantic(trace_from_json, args=(v1,), rounds=3,
                               iterations=1)
    assert trace_to_json(trace) == v2


def test_v2_loads_faster_and_is_smaller_than_v1(documents):
    v1, v2 = documents
    v1_s, v2_s = _best_load_s((v1, v2))
    speedup = v1_s / v2_s
    assert speedup >= MIN_LOAD_SPEEDUP, (
        f"a v2 load is only {speedup:.2f}x faster than a v1 load "
        f"({v2_s * 1e3:.0f} ms vs {v1_s * 1e3:.0f} ms)"
    )
    ratio = len(v1) / len(v2)
    assert ratio >= MIN_SIZE_RATIO, (
        f"the v2 file is only {ratio:.2f}x smaller "
        f"({len(v2) / 1e6:.2f} MB vs {len(v1) / 1e6:.2f} MB)"
    )

"""Unit tests for Trace queries and export."""

import json

from repro.tracing import Level, Span, Trace


def _trace():
    t = Trace(trace_id=1)
    t.add(Span("predict", 0, 1000, Level.MODEL, span_id=1))
    t.add(Span("conv", 100, 600, Level.LAYER, span_id=2, parent_id=1))
    t.add(Span("relu", 600, 900, Level.LAYER, span_id=3, parent_id=1))
    t.add(Span("kernel", 150, 500, Level.GPU_KERNEL, span_id=4, parent_id=2))
    return t


def test_at_level():
    t = _trace()
    assert len(t.at_level(Level.LAYER)) == 2
    assert len(t.at_level(Level.GPU_KERNEL)) == 1


def test_sorted_spans_parents_first():
    t = _trace()
    assert t.table.name_of(t.index.rows_sorted()[0]) == "predict"


def test_parent_id_column():
    t = _trace()
    parents = t.table.parent_id
    assert [t.table.name_of(row) for row in range(len(t))
            if parents[row] == 1] == ["conv", "relu"]
    assert [t.table.name_of(row) for row in range(len(t))
            if parents[row] == 2] == ["kernel"]
    assert [s.name for s in t.spans if s.parent_id is None] == ["predict"]


def test_levels_present_sorted():
    t = _trace()
    assert t.levels_present() == [Level.MODEL, Level.LAYER, Level.GPU_KERNEL]


def test_span_extent():
    t = _trace()
    assert t.span_extent_ns() == (0, 1000)
    assert Trace(trace_id=9).span_extent_ns() == (0, 0)


def test_first_named_and_find():
    t = _trace()
    assert t.first_named("conv").span_id == 2
    assert t.first_named("nope") is None
    assert len(t.find(lambda s: s.duration_ns > 400)) == 2


def test_chrome_trace_export_is_valid_json():
    t = _trace()
    doc = json.loads(t.to_chrome_trace())
    # One complete event per span, plus "M" metadata (process/thread
    # naming) and any launch/execution flow arrows.
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == 4
    event = complete[0]
    assert {"name", "ts", "dur", "args"} <= set(event)


def test_summary():
    s = _trace().summary()
    assert s["n_spans"] == 4
    assert s["per_level"]["LAYER"] == 2

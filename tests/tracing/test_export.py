"""Trace JSON persistence tests."""

import pytest

from repro.tracing import Level, Span, SpanKind, Trace
from repro.tracing.export import (
    FORMAT_VERSION,
    load_trace,
    save_trace,
    trace_from_json,
    trace_to_json,
)


def sample_trace():
    t = Trace(trace_id=42, metadata={"model": "m", "batch": 8})
    t.add(Span("predict", 0, 1000, Level.MODEL, span_id=1,
               tags={"batch": 8, "shape": (8, 3, 4, 4)}))
    t.add(Span("conv", 100, 600, Level.LAYER, span_id=2, parent_id=1))
    launch = Span("kernel", 150, 160, Level.GPU_KERNEL, span_id=3,
                  kind=SpanKind.LAUNCH, correlation_id=9)
    launch.log(155, event="queued")
    t.add(launch)
    return t


def test_round_trip_preserves_everything():
    original = sample_trace()
    restored = trace_from_json(trace_to_json(original))
    assert restored.trace_id == 42
    assert restored.metadata == {"model": "m", "batch": 8}
    assert len(restored) == 3
    for a, b in zip(original.spans, restored.spans):
        assert (a.name, a.start_ns, a.end_ns, a.level, a.span_id,
                a.parent_id, a.kind, a.correlation_id) == \
            (b.name, b.start_ns, b.end_ns, b.level, b.span_id,
             b.parent_id, b.kind, b.correlation_id)
    # tuples become lists in JSON; values are preserved.
    assert restored.spans[0].tags["shape"] == [8, 3, 4, 4]
    assert restored.spans[2].logs[0].fields == {"event": "queued"}


def test_file_round_trip(tmp_path):
    path = tmp_path / "trace.json"
    save_trace(sample_trace(), str(path))
    restored = load_trace(str(path))
    assert len(restored) == 3


def test_version_check():
    import json

    doc = json.loads(trace_to_json(sample_trace()))
    doc["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(ValueError, match="format version"):
        trace_from_json(json.dumps(doc))


def test_restored_trace_supports_analysis_queries():
    from repro.tracing import reconstruct_parents

    restored = trace_from_json(trace_to_json(sample_trace()))
    reconstruct_parents(restored)  # the launch span gets its layer parent
    assert [s.name for s in restored.spans
            if s.parent_id is None] == ["predict"]
    assert len(restored.at_level(Level.LAYER)) == 1
    assert restored.by_id()[3].parent_id == 2


def test_real_profiled_trace_round_trips(v100_session, cnn_graph):
    from repro.core import ProfilingConfig

    run = v100_session.profile(cnn_graph, 2, ProfilingConfig(metrics=()))
    restored = trace_from_json(trace_to_json(run.trace))
    assert len(restored) == len(run.trace)
    assert restored.levels_present() == run.trace.levels_present()


# -- Chrome trace_event export ----------------------------------------------


def test_chrome_export_structure():
    import json

    from repro.tracing.export import trace_to_chrome

    doc = json.loads(trace_to_chrome(sample_trace()))
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]

    meta = [e for e in events if e["ph"] == "M"]
    names = {e["name"]: e for e in meta}
    assert names["process_name"]["args"]["name"] == "m"
    thread_names = [
        e["args"]["name"] for e in meta if e["name"] == "thread_name"
    ]
    assert "L1 MODEL" in thread_names and "L4 GPU_KERNEL" in thread_names

    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 3
    predict = next(e for e in complete if e["name"] == "predict")
    assert predict["ts"] == 0 and predict["dur"] == 1.0  # microseconds
    assert predict["args"]["span_id"] == 1
    assert predict["tid"] == int(Level.MODEL)


def test_chrome_export_flow_events_join_launch_execution():
    import json

    from repro.tracing.export import trace_to_chrome

    t = sample_trace()
    t.add(Span("kernel", 200, 230, Level.GPU_KERNEL, span_id=4,
               kind=SpanKind.EXECUTION, correlation_id=9))
    events = json.loads(trace_to_chrome(t))["traceEvents"]
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == 1 and len(finishes) == 1
    assert starts[0]["id"] == finishes[0]["id"] == 9
    assert finishes[0]["bp"] == "e"


def test_trace_method_delegates_to_export():
    t = sample_trace()
    from repro.tracing.export import trace_to_chrome

    assert t.to_chrome_trace() == trace_to_chrome(t)


def test_non_json_log_fields_export_via_jsonable():
    """Regression: a span log carrying a non-JSON object (tags already
    degraded via _jsonable; log fields crashed trace_to_json)."""

    class Payload:
        def __repr__(self):
            return "Payload<7>"

    t = Trace(trace_id=1)
    span = Span("predict", 0, 10, Level.MODEL, span_id=1)
    span.log(5, payload=Payload(), shape=(1, 2), ok=True)
    t.add(span)
    restored = trace_from_json(trace_to_json(t))  # must not raise
    fields = restored.spans[0].logs[0].fields
    assert fields["payload"] == "Payload<7>"
    assert fields["shape"] == [1, 2]
    assert fields["ok"] is True

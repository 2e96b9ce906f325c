"""Unit tests for the tracing server."""

import pytest
from rows import span_rows

import repro.tracing.server as server_mod
from repro.tracing import Level, Span, TracingServer


def _span(name, start=0, end=10, level=Level.MODEL):
    return Span(name, start, end, level)


def test_begin_trace_routes_spans():
    server = TracingServer()
    tid = server.begin_trace(model="m")
    server.publish(_span("a"))
    trace = server.end_trace(tid)
    assert [s.name for s in trace.spans] == ["a"]
    assert trace.metadata["model"] == "m"


def test_publish_to_explicit_trace_id():
    server = TracingServer()
    t1 = server.begin_trace()
    t2 = server.begin_trace()
    span = _span("explicit")
    span.trace_id = t1
    server.publish(span)
    assert len(server.stream(t1).trace) == 1
    assert len(server.stream(t2).trace) == 0


def test_publish_without_trace_creates_one():
    server = TracingServer()
    server.publish(_span("orphan"))
    assert len(server.traces()) == 1


def test_end_trace_deactivates():
    server = TracingServer()
    tid = server.begin_trace()
    server.end_trace(tid)
    with pytest.raises(ValueError, match="no active trace"):
        server.stream()


def test_publish_many_batches_into_columns():
    """The batch ingest path: one lock round, rows land in the active
    trace's columnar table."""
    server = TracingServer()
    tid = server.begin_trace()
    server.publish_many(
        iter(span_rows(_span(f"s{i}", i, i + 1) for i in range(5)))
    )
    trace = server.end_trace(tid)
    assert [s.name for s in trace.spans] == [f"s{i}" for i in range(5)]


def test_empty_publish_many_opens_no_trace():
    server = TracingServer()
    server.publish_many(iter([]))
    assert server.traces() == []


def test_publishing_to_an_open_trace_constructs_no_trace(monkeypatch):
    """The destination lookup builds a ``Trace`` only on a miss, not a
    throwaway one per published span."""
    server = TracingServer()
    tid = server.begin_trace()
    constructed = []
    real_trace = server_mod.Trace

    def counting_trace(*args, **kwargs):
        constructed.append(kwargs.get("trace_id"))
        return real_trace(*args, **kwargs)

    monkeypatch.setattr(server_mod, "Trace", counting_trace)
    n = 50
    server.publish_many(span_rows(_span(f"s{i}", i, i + 1) for i in range(n)))
    for i in range(n):
        server.publish(_span(f"p{i}", i, i + 1))
    assert constructed == []
    assert len(server.end_trace(tid)) == 2 * n


def test_publish_many_drops_spans_for_ended_traces():
    """Rows carry no trace id: after the active trace ends, a batch opens
    a new trace on demand and never revives the ended one."""
    server = TracingServer()
    tid = server.begin_trace()
    server.publish(_span("on-time"))
    ended = server.end_trace(tid)
    server.publish_many(span_rows([_span("late")]))
    [opened] = server.traces()
    assert opened.trace_id != tid
    assert [s.name for s in opened.spans] == ["late"]
    assert [s.name for s in ended.spans] == ["on-time"]


def test_multiple_tracers_aggregate_into_one_timeline():
    """The core idea: spans from different tracers merge into one trace."""
    from repro.tracing import Tracer

    server = TracingServer()
    tid = server.begin_trace()
    model_tracer = Tracer("model", Level.MODEL, server)
    layer_tracer = Tracer("layer", Level.LAYER, server)
    model_tracer.publish(_span("predict", 0, 100))
    layer_tracer.publish(_span("conv", 10, 60, Level.LAYER))
    layer_tracer.publish(_span("relu", 60, 90, Level.LAYER))
    trace = server.end_trace(tid)
    assert len(trace) == 3
    assert {s.tags["tracer"] for s in trace} == {"model", "layer"}


def test_clear():
    server = TracingServer()
    server.begin_trace()
    server.publish(_span("a"))
    server.clear()
    assert server.traces() == []


def test_end_trace_evicts_finished_trace():
    """A long-lived server must not grow without bound: ending a trace
    removes it from the server while the caller keeps the timeline."""
    server = TracingServer()
    tid = server.begin_trace(model="m")
    server.publish(_span("a"))
    trace = server.end_trace(tid)
    assert [s.name for s in trace.spans] == ["a"]  # caller owns the result
    assert server.traces() == []  # server no longer holds it
    try:
        server.stream(tid)
    except KeyError:
        pass
    else:  # pragma: no cover - regression guard
        raise AssertionError("ended trace still retrievable")


def test_stream_still_serves_open_traces():
    server = TracingServer()
    t1 = server.begin_trace()
    t2 = server.begin_trace()
    server.end_trace(t2)
    assert server.stream(t1).trace.trace_id == t1  # open trace unaffected
    assert [t.trace_id for t in server.traces()] == [t1]


def test_many_trace_lifecycles_leave_server_empty():
    """The profile-many-models lifecycle: begin/publish/end N times."""
    server = TracingServer()
    for i in range(50):
        tid = server.begin_trace(run=i)
        server.publish(_span(f"s{i}"))
        trace = server.end_trace(tid)
        assert len(trace) == 1
    assert server.traces() == []
    with pytest.raises(ValueError, match="no active trace"):
        server.stream()


def test_publish_after_end_is_dropped_not_resurrected():
    """Regression: a late publish addressed to an ended trace must not
    re-create an orphan timeline in the server (unbounded growth again)."""
    server = TracingServer()
    tid = server.begin_trace()
    server.publish(_span("on-time"))
    trace = server.end_trace(tid)
    late = _span("late")
    late.trace_id = tid
    server.publish(late)
    assert server.traces() == []  # nothing resurrected server-side
    assert [s.name for s in trace.spans] == ["on-time"]


def test_eviction_state_is_bounded_across_many_lifecycles():
    """The leak fix must not swap trace growth for ended-id growth."""
    server = TracingServer()
    for i in range(200):
        tid = server.begin_trace()
        server.publish(_span(f"s{i}"))
        server.end_trace(tid)
    assert server.traces() == []
    # O(1) bookkeeping: a single watermark int, not a per-trace id set.
    assert isinstance(server._ended_watermark, int)
    assert not any(
        isinstance(v, (set, list, dict)) and len(v) >= 200
        for v in vars(server).values()
    )


def test_publish_after_clear_is_dropped_too():
    """clear() must not let late publishes revive cleared traces."""
    server = TracingServer()
    tid = server.begin_trace()
    server.publish(_span("pre-clear"))
    server.clear()
    late = _span("late")
    late.trace_id = tid
    server.publish(late)
    assert server.traces() == []

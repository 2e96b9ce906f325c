"""startSpan/finishSpan API tests."""

from repro.core.api import finish_span, start_span
from repro.core.profilers import ModelTracer
from repro.sim import VirtualClock
from repro.tracing import Level, TracingServer


def test_start_finish_measures_region():
    clock = VirtualClock()
    server = TracingServer()
    tid = server.begin_trace()
    tracer = ModelTracer(server)
    scope = start_span(tracer, clock.now, "predict", batch=8)
    clock.advance_us(5_000)
    span = finish_span(scope, status="ok")
    assert span.duration_ms == 5.0
    assert span.tags["batch"] == 8
    assert span.tags["status"] == "ok"
    assert span.level == Level.MODEL
    assert server.end_trace(tid).spans[:] == [span]


def test_nested_spans_via_parent_id():
    clock = VirtualClock()
    tracer = ModelTracer(TracingServer())
    outer = start_span(tracer, clock.now, "evaluate")
    inner = start_span(tracer, clock.now, "predict",
                       parent_id=outer.span.span_id)
    clock.advance_us(1_000)
    finish_span(inner)
    clock.advance_us(1_000)
    finish_span(outer)
    assert inner.span.parent_id == outer.span.span_id
    assert outer.span.duration_ms == 2.0

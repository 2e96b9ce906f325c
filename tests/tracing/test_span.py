"""Unit tests for the span data model."""

import pytest

from repro.tracing import Level, Span, SpanKind, new_span_id, new_trace_id


def test_span_ids_unique():
    ids = {new_span_id() for _ in range(100)}
    assert len(ids) == 100


def test_trace_ids_unique():
    assert new_trace_id() != new_trace_id()


def test_span_duration():
    s = Span("op", 1_000, 4_000, Level.MODEL)
    assert s.duration_ns == 3_000
    assert s.duration_ms == pytest.approx(0.003)


def test_span_rejects_negative_duration():
    with pytest.raises(ValueError, match="precedes"):
        Span("bad", 100, 50, Level.MODEL)


def test_span_zero_duration_allowed():
    s = Span("instant", 100, 100, Level.LAYER)
    assert s.duration_ns == 0


def test_containment_inclusive_endpoints():
    outer = Span("outer", 0, 100, Level.LAYER)
    inner = Span("inner", 0, 100, Level.GPU_KERNEL)
    assert outer.contains(inner)
    assert inner.contains(outer)  # identical intervals contain each other


def test_containment_strict():
    outer = Span("outer", 0, 100, Level.LAYER)
    inner = Span("inner", 10, 90, Level.GPU_KERNEL)
    assert outer.contains(inner)
    assert not inner.contains(outer)


def test_tags_and_logs_chain():
    s = Span("op", 0, 10, Level.MODEL)
    s.tag("batch", 8).tag("framework", "tf")
    s.log(5, event="checkpoint", detail=1)
    assert s.tags["batch"] == 8
    assert dict(s.iter_tags())["framework"] == "tf"
    assert s.logs[0].timestamp_ns == 5
    assert s.logs[0].fields["event"] == "checkpoint"


def test_level_ordering_model_is_level_one():
    assert Level.MODEL == 1
    assert Level.MODEL < Level.LAYER < Level.LIBRARY < Level.GPU_KERNEL


def test_level_short_names():
    assert Level.MODEL.short_name == "M"
    assert Level.LAYER.short_name == "L"
    assert Level.GPU_KERNEL.short_name == "G"


def test_span_kinds():
    launch = Span("k", 0, 1, Level.GPU_KERNEL, kind=SpanKind.LAUNCH,
                  correlation_id=7)
    execution = Span("k", 5, 9, Level.GPU_KERNEL, kind=SpanKind.EXECUTION,
                     correlation_id=7)
    assert launch.correlation_id == execution.correlation_id
    assert launch.kind is SpanKind.LAUNCH

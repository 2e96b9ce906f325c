"""Ambiguity detection -> serialized re-run flow (Sec. III-A)."""

from repro.core import MLG, ProfilingConfig, XSPSession
from repro.core.profilers import LayerTracer
from repro.frameworks.profiler_format import LayerRecord, tf_step_stats
from repro.tracing import (
    Level,
    Span,
    SpanKind,
    Trace,
    TracingServer,
    reconstruct_parents,
)


def test_overlapping_layer_spans_trigger_rerun_flag():
    """Synthesize an inter-op-parallel trace: two layers overlap, a kernel
    launch falls inside both -> ambiguous -> needs serialized re-run."""
    trace = Trace(trace_id=1)
    trace.add(Span("predict", 0, 10_000, Level.MODEL, span_id=1))
    trace.add(Span("branchA/conv", 100, 5_000, Level.LAYER, span_id=2,
                   parent_id=1))
    trace.add(Span("branchB/conv", 200, 6_000, Level.LAYER, span_id=3,
                   parent_id=1))
    trace.add(Span("launch", 300, 320, Level.GPU_KERNEL, span_id=4,
                   kind=SpanKind.LAUNCH, correlation_id=1))
    result = reconstruct_parents(trace, strict=False)
    assert result.needs_serialized_rerun
    assert result.ambiguous[0].span_id == 4


def test_serialized_trace_resolves_same_workload():
    """After serialization the same two layers no longer overlap and the
    launch resolves unambiguously."""
    trace = Trace(trace_id=2)
    trace.add(Span("predict", 0, 10_000, Level.MODEL, span_id=1))
    trace.add(Span("branchA/conv", 100, 5_000, Level.LAYER, span_id=2,
                   parent_id=1))
    trace.add(Span("branchB/conv", 5_000, 9_000, Level.LAYER, span_id=3,
                   parent_id=1))
    trace.add(Span("launch", 300, 320, Level.GPU_KERNEL, span_id=4,
                   kind=SpanKind.LAUNCH, correlation_id=1))
    result = reconstruct_parents(trace, strict=False)
    assert not result.needs_serialized_rerun
    assert trace.by_id()[4].parent_id == 2


def test_session_auto_serialize_flag(v100_session, cnn_graph):
    """auto_serialize is a no-op when the first run is unambiguous."""
    run = v100_session.profile(
        cnn_graph, 2, ProfilingConfig(levels=MLG, auto_serialize=True)
    )
    assert not run.was_serialized_retry


def test_layer_tracer_roundtrip_preserves_order():
    records = [
        LayerRecord(i, f"l{i}", "Relu", (1, 2), i * 100, i * 100 + 50, 8)
        for i in range(1, 6)
    ]
    server = TracingServer()
    tid = server.begin_trace()
    LayerTracer(server).convert(tf_step_stats(records), "tensorflow_like", 1)
    spans = server.end_trace(tid).spans
    assert [s.tags["layer_index"] for s in spans] == [1, 2, 3, 4, 5]

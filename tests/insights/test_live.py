"""LiveMonitor: insights over an in-flight capture via the stream cursor."""

from __future__ import annotations

import threading

from factories import build_basic_profile, make_matching_trace, span_rows

from repro.insights import LiveMonitor
from repro.tracing import Level, Span, SpanKind, TracingServer


def _capture_spans():
    """A realistic capture (model + layers + kernel pairs) as Span list."""
    profile = build_basic_profile()
    trace = make_matching_trace(profile, gap_us=100.0)
    return [
        Span(v.name, v.start_ns, v.end_ns, v.level, span_id=v.span_id,
             kind=v.kind, correlation_id=v.correlation_id,
             tags=dict(v.iter_tags()))
        for v in trace.spans
    ]


def _begin(server):
    return server.begin_trace(
        model="synthetic", system="Tesla_V100",
        framework="tensorflow_like", batch=8,
    )


def test_monitor_refreshes_per_batch_and_finishes():
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid, correlate=True)
    spans = _capture_spans()
    third = len(spans) // 3

    server.publish_many(span_rows(spans[:third]))
    first = monitor.poll()
    assert first is not None and not first.final
    assert first.new_rows == third
    assert first.refreshed_rules  # everything ran on the first refresh

    # Quiet capture: no rows -> no update, no rule evaluations.
    evaluations = dict(monitor.engine.evaluations)
    assert monitor.poll() is None
    assert monitor.engine.evaluations == evaluations

    server.publish_many(span_rows(spans[third:]))
    server.end_trace(tid)
    second = monitor.poll()
    assert second is not None and second.final
    assert second.n_spans == len(spans)
    assert monitor.done
    assert monitor.poll() is None

    # The completed capture's report carries real findings: the 100 us
    # inter-kernel gaps make the idle-bubble rule fire.
    assert any(i.rule == "gpu-idle-bubbles" for i in second.report)


def test_monitor_correlates_incrementally():
    """With correlate=True, kernels arriving unparented get resolved to
    their layers on each refresh, matching the profile view."""
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid, correlate=True)
    spans = _capture_spans()
    # Split on a span boundary such that each increment carries whole
    # layers (parents never arrive after their children's increment).
    layer_ids = [s.span_id for s in spans if s.level is Level.LAYER]
    cut = next(
        i for i, s in enumerate(spans) if s.span_id == layer_ids[1]
    ) + 1
    server.publish_many(span_rows(spans[:cut]))
    update = monitor.poll()
    assert update is not None
    server.publish_many(span_rows(spans[cut:]))
    server.end_trace(tid)
    final = monitor.poll()
    assert final is not None and final.final
    trace = monitor.trace
    # Every execution span ends up parented under some layer span.
    layer_set = set(layer_ids)
    executions = [
        s for s in trace.spans if s.kind is SpanKind.EXECUTION
    ]
    assert executions
    assert all(s.parent_id in layer_set for s in executions)


def test_monitor_parents_kernels_published_before_their_layer():
    """A layer that lands one increment after its kernels still becomes
    their parent: each refresh re-correlates the whole capture."""
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid, correlate=True)
    kernels = []
    for i in range(3):
        start = 100 + 500 * i
        kernels.append(
            Span("k", start, start + 50, Level.GPU_KERNEL, span_id=20 + 2 * i,
                 kind=SpanKind.LAUNCH, correlation_id=10 + i)
        )
        kernels.append(
            Span("k", start + 25, start + 400, Level.GPU_KERNEL,
                 span_id=21 + 2 * i, kind=SpanKind.EXECUTION,
                 correlation_id=10 + i)
        )
    server.publish_many(span_rows(kernels))
    assert monitor.poll() is not None
    server.publish(Span("conv", 0, 2_000, Level.LAYER, span_id=2,
                        tags={"layer_index": 0, "layer_type": "Conv2D"}))
    server.end_trace(tid)
    final = monitor.poll()
    assert final is not None and final.final
    executions = [
        s for s in monitor.trace.spans if s.kind is SpanKind.EXECUTION
    ]
    assert len(executions) == 3
    assert all(s.parent_id == 2 for s in executions)


def test_monitor_blocking_updates_with_producer_thread():
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid)
    spans = _capture_spans()

    def produce():
        half = len(spans) // 2
        server.publish_many(span_rows(spans[:half]))
        server.publish_many(span_rows(spans[half:]))
        server.end_trace(tid)

    producer = threading.Thread(target=produce)
    producer.start()
    updates = list(monitor.updates())
    producer.join()
    assert updates  # at least one refresh observed
    assert updates[-1].final
    assert updates[-1].n_spans == len(spans)
    assert sum(u.new_rows for u in updates) == len(spans)


def test_monitor_empty_closed_trace_yields_nothing():
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid)
    server.end_trace(tid)
    assert monitor.poll() is None
    assert monitor.done

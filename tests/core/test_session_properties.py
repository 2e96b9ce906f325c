"""Property-based session/trace invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProfilingConfig, XSPSession
from repro.tracing import Level, SpanKind

_session = XSPSession("Tesla_V100", "tensorflow_like")


@settings(max_examples=12, deadline=None)
@given(batch=st.sampled_from([1, 2, 5, 8, 16, 33]))
def test_trace_invariants_across_batches(cnn_graph, batch):
    run = _session.profile(cnn_graph, batch, ProfilingConfig(metrics=()))
    trace = run.trace
    by_id = trace.by_id()

    # Every span's parent (when set) exists and contains it level-above.
    for span in trace.spans:
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        assert parent.level < span.level
        if span.kind is not SpanKind.EXECUTION:
            assert parent.contains(span)

    # Layer spans tile the predict span without overlap.
    layers = sorted(trace.at_level(Level.LAYER), key=lambda s: s.start_ns)
    for a, b in zip(layers, layers[1:]):
        assert a.end_ns <= b.start_ns
    assert all(run.predict_span.contains(s) for s in layers)

    # Launch/execution pairing is complete and 1:1.
    launches = [s for s in trace.spans if s.kind is SpanKind.LAUNCH]
    executions = [s for s in trace.spans if s.kind is SpanKind.EXECUTION]
    assert len(launches) == len(executions) == run.n_kernels
    assert {s.correlation_id for s in launches} == \
        {s.correlation_id for s in executions}

    # Kernel execution never precedes its launch.
    launch_of = {s.correlation_id: s for s in launches}
    for execution in executions:
        launch = launch_of[execution.correlation_id]
        assert execution.start_ns >= launch.start_ns

"""Determinism guarantees: identical runs, stable hierarchies."""

from repro.core import ProfilingConfig, XSPSession
from repro.tracing import SpanKind


def _span_signature(trace):
    return [
        (s.name, s.level.name, s.kind.value, s.start_ns, s.end_ns)
        for s in map(trace.spans.__getitem__, trace.index.rows_sorted())
    ]


def _hierarchy_signature(run):
    """(kernel, layer) per execution span in correlation-id order: the
    execution's parent is its launch's."""
    by_id = run.trace.by_id()
    executions = [s for s in run.trace.spans if s.kind is SpanKind.EXECUTION]
    assert len(executions) == run.n_kernels
    return [(s.name, by_id[s.parent_id].name)
            for s in sorted(executions, key=lambda s: s.correlation_id)]


def test_identical_runs_produce_identical_traces(cnn_graph):
    runs = []
    for _ in range(2):
        session = XSPSession("Tesla_V100", "tensorflow_like")
        runs.append(session.profile(cnn_graph, 8,
                                    ProfilingConfig(metrics=())))
    assert _span_signature(runs[0].trace) == _span_signature(runs[1].trace)


def test_jitter_changes_timings_not_structure(cnn_graph):
    """Different run indices jitter latencies but the reconstructed
    kernel->layer hierarchy is identical (DESIGN.md ablation)."""
    session = XSPSession("Tesla_V100", "tensorflow_like")
    runs = [
        session.profile(cnn_graph, 8,
                        ProfilingConfig(metrics=(), run_index=i))
        for i in range(3)
    ]
    signatures = {tuple(_hierarchy_signature(r)) for r in runs}
    assert len(signatures) == 1
    timings = {tuple(_span_signature(r.trace)) for r in runs}
    assert len(timings) == 3  # latencies really differ across runs


def test_serialized_and_async_agree_on_structure(cnn_graph):
    session = XSPSession("Tesla_V100", "tensorflow_like")
    async_run = session.profile(cnn_graph, 8, ProfilingConfig(metrics=()))
    serialized = session.profile(
        cnn_graph, 8, ProfilingConfig(metrics=(), serialized=True)
    )
    assert _hierarchy_signature(async_run) == _hierarchy_signature(serialized)

"""XSPSession integration tests."""

import pytest

import repro.core.session as session_module
from repro.core import M, ML, MLG, ProfilingConfig, XSPSession
from repro.core.pipeline import profile_from_trace
from repro.tracing import Level, SpanKind, correlate_launch_execution
from repro.tracing.table import SpanView


def _run(session, graph, batch=4, levels=MLG, **kw):
    return session.profile(graph, batch, ProfilingConfig(levels=levels, **kw))


def test_model_level_only(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph, levels=M)
    assert run.trace.at_level(Level.LAYER) == []
    assert run.trace.at_level(Level.GPU_KERNEL) == []
    names = {s.name for s in run.trace.at_level(Level.MODEL)}
    assert names == {"input_preprocess", "predict", "output_postprocess"}


def test_ml_level_has_layer_spans(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph, levels=ML)
    layers = run.trace.at_level(Level.LAYER)
    assert len(layers) > 5
    assert all(s.parent_id == run.predict_span.span_id for s in layers)
    assert run.trace.at_level(Level.GPU_KERNEL) == []


def test_mlg_level_full_stack(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph)
    kernels = run.trace.at_level(Level.GPU_KERNEL)
    assert kernels
    launches = [s for s in kernels if s.kind is SpanKind.LAUNCH]
    executions = [s for s in kernels if s.kind is SpanKind.EXECUTION]
    assert len(launches) == len(executions) == run.n_kernels


def test_kernels_correlated_to_layers(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph)
    profile = profile_from_trace(run.trace)
    # Every kernel found its layer.
    assert len(profile.kernels) == run.n_kernels
    # The first Conv2D layer owns at least one scudnn/implicit kernel.
    conv = next(l for l in profile.layers if l.layer_type == "Conv2D")
    conv_kernel_names = [k.name for k in conv.kernels]
    assert any("convolve" in n or "scudnn" in n for n in conv_kernel_names)


def _kernel_spans(run, kind):
    return [s for s in run.trace.at_level(Level.GPU_KERNEL) if s.kind is kind]


def test_launch_spans_contained_in_their_layer(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph)
    by_id = run.trace.by_id()
    launches = _kernel_spans(run, SpanKind.LAUNCH)
    assert len(launches) == run.n_kernels
    for launch in launches:
        layer = by_id[launch.parent_id]
        assert layer.level == Level.LAYER
        assert layer.contains(launch)


def test_execution_parent_is_its_launch_parent(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph)
    launch_parent = {s.correlation_id: s.parent_id
                     for s in _kernel_spans(run, SpanKind.LAUNCH)}
    executions = _kernel_spans(run, SpanKind.EXECUTION)
    assert len(executions) == run.n_kernels
    for execution in executions:
        assert execution.parent_id == launch_parent[execution.correlation_id]
        assert execution.parent_id is not None


def test_layer_spans_nest_in_predict(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph, levels=ML)
    for span in run.trace.at_level(Level.LAYER):
        assert run.predict_span.contains(span)


def test_metrics_attached(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph)
    flops = [s.tags.get("metric.flop_count_sp")
             for s in _kernel_spans(run, SpanKind.EXECUTION)]
    assert any(f and f > 0 for f in flops)


def test_serialized_config_sets_env(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph, serialized=True)
    assert run.config.serialized
    assert not run.correlation.needs_serialized_rerun


def test_no_ambiguity_in_sequential_execution(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph)
    assert not run.correlation.needs_serialized_rerun
    assert not run.was_serialized_retry


def test_run_summary(v100_session, cnn_graph):
    summary = _run(v100_session, cnn_graph).summary()
    assert summary["system"] == "Tesla_V100"
    assert summary["levels"] == "M/L/G"
    assert summary["n_kernels"] > 0


def test_unknown_framework_rejected():
    with pytest.raises(KeyError, match="unknown framework"):
        XSPSession(framework="pytorch_like")


def test_framework_aliases():
    assert XSPSession(framework="tf").framework_cls.name == "tensorflow_like"
    assert XSPSession(framework="mx").framework_cls.name == "mxnet_like"


def test_mxnet_session_profiles(mx_session, cnn_graph):
    run = _run(mx_session, cnn_graph)
    types = {l.layer_type for l in profile_from_trace(run.trace).layers}
    assert "Convolution" in types
    assert "BatchNorm" in types


def test_run_index_changes_latency_slightly(v100_session, cnn_graph):
    a = _run(v100_session, cnn_graph, levels=M, run_index=0)
    b = _run(v100_session, cnn_graph, levels=M, run_index=1)
    assert a.model_latency_ms != b.model_latency_ms
    assert abs(a.model_latency_ms - b.model_latency_ms) < 0.2 * a.model_latency_ms


def test_failed_run_leaves_no_open_trace(cnn_graph):
    """An out-of-memory point ends its trace: after it and a good point,
    the server holds no open trace."""
    from repro.models import get_model
    from repro.sim.memory import OutOfDeviceMemoryError

    session = XSPSession("Tesla_P4", "tensorflow_like")
    with pytest.raises(OutOfDeviceMemoryError):
        session.profile(get_model(16).graph, 4096)  # VGG16
    session.profile(cnn_graph, 1)
    assert session.server.traces() == []


def test_capture_correlation_counts_pairs_and_builds_no_views(cnn_graph,
                                                             monkeypatch):
    """A cold M/L/G+metrics capture's launch/execution correlation returns
    its pair count and constructs no SpanView."""
    views = []
    view_init = SpanView.__init__

    def counted_init(self, table, row):
        views.append(row)
        view_init(self, table, row)

    calls = []

    def spy(trace):
        before = len(views)
        pairs = correlate_launch_execution(trace)
        calls.append((pairs, len(views) - before))
        return pairs

    monkeypatch.setattr(SpanView, "__init__", counted_init)
    monkeypatch.setattr(session_module, "correlate_launch_execution", spy)
    session = XSPSession("Tesla_V100", "tensorflow_like")
    run = session.profile(cnn_graph, 4, ProfilingConfig())
    assert run.config.levels == MLG and run.config.metrics
    [(pairs, built)] = calls
    assert built == 0
    assert pairs == run.n_kernels > 0
    assert pairs == len(_kernel_spans(run, SpanKind.LAUNCH)) == len(
        _kernel_spans(run, SpanKind.EXECUTION))

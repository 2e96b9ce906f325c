"""Application-level profiling tests (Sec. III-E extension)."""

import pytest

from repro.core import ProfilingConfig, XSPSession
from repro.tracing import Level, SpanKind, correlate_launch_execution


@pytest.fixture(scope="module")
def app(cnn_graph):
    session = XSPSession("Tesla_V100", "tensorflow_like")
    trace, runs = session.profile_application(
        [(cnn_graph, 2), (cnn_graph, 4)],
        name="double_eval",
        config=ProfilingConfig(metrics=()),
    )
    return trace, runs


def test_single_application_span(app):
    trace, runs = app
    apps = trace.at_level(Level.APPLICATION)
    assert len(apps) == 1
    assert apps[0].name == "double_eval"
    assert apps[0].tags["evaluations"] == 2
    assert len(runs) == 2


def test_model_spans_parented_on_application(app):
    trace, _ = app
    app_span = trace.at_level(Level.APPLICATION)[0]
    predicts = [s for s in trace.at_level(Level.MODEL)
                if s.name == "predict"]
    assert len(predicts) == 2
    assert all(s.parent_id == app_span.span_id for s in predicts)
    assert all(app_span.contains(s) for s in predicts)


def test_evaluations_do_not_overlap(app):
    trace, _ = app
    predicts = sorted(
        (s for s in trace.at_level(Level.MODEL) if s.name == "predict"),
        key=lambda s: s.start_ns,
    )
    assert predicts[0].end_ns < predicts[1].start_ns


def test_spans_tagged_with_model(app):
    trace, _ = app
    layer = trace.at_level(Level.LAYER)[0]
    assert layer.tags["model"] == "small_cnn"


def test_empty_workload_rejected(cnn_graph):
    session = XSPSession()
    with pytest.raises(ValueError, match="empty"):
        session.profile_application([])


def test_mixed_model_application(cnn_graph):
    from repro.models import get_model

    session = XSPSession()
    trace, runs = session.profile_application(
        [(cnn_graph, 1), (get_model(53).graph, 1)],
        config=ProfilingConfig(metrics=()),
    )
    models = {s.tags.get("model") for s in trace.at_level(Level.LAYER)}
    assert models == {"small_cnn", "DeepLabv3_MobileNet_v2"}


def test_application_capture_correlates(app):
    """Each evaluation numbers its launches from 1; the capture keeps one
    launch and one execution per correlation id."""
    trace, runs = app
    pairs = correlate_launch_execution(trace)
    assert pairs == sum(run.n_kernels for run in runs)
    gpu = trace.at_level(Level.GPU_KERNEL)
    launches = {s.correlation_id: s for s in gpu if s.kind is SpanKind.LAUNCH}
    executions = {s.correlation_id: s for s in gpu
                  if s.kind is SpanKind.EXECUTION}
    assert len(launches) == len(executions) == pairs
    assert launches.keys() == executions.keys()
    predicts = [s for s in trace.at_level(Level.MODEL) if s.name == "predict"]
    for cid, launch in launches.items():
        # Launch and execution come from the same evaluation.
        (owner,) = [p for p in predicts if p.contains(launch)]
        assert owner.contains(executions[cid])


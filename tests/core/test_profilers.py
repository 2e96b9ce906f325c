"""Tracer conversion tests (layer + GPU)."""

import pytest

from repro.core.profilers import GpuTracer, LayerTracer
from repro.frameworks.profiler_format import LayerRecord, mx_profile, tf_step_stats
from repro.sim.cupti import ActivityBuffer, CallbackBuffer
from repro.tracing import Level, SpanKind, TracingServer


def _published(tracer_cls, *args):
    """Run ``tracer_cls(server).convert(*args)``; return the trace's spans."""
    server = TracingServer()
    tid = server.begin_trace()
    tracer_cls(server).convert(*args)
    return server.end_trace(tid).spans


def _records():
    return [
        LayerRecord(1, "conv1/Conv2D", "Conv2D", (4, 8, 8, 8), 0, 1000, 64),
        LayerRecord(2, "relu1/Relu", "Relu", (4, 8, 8, 8), 1000, 1400, 64),
    ]


def test_layer_tracer_parses_tf_format():
    spans = _published(
        LayerTracer, tf_step_stats(_records()), "tensorflow_like", 77
    )
    assert [s.name for s in spans] == ["conv1/Conv2D", "relu1/Relu"]
    assert all(s.parent_id == 77 for s in spans)
    assert all(s.level == Level.LAYER for s in spans)
    assert spans[0].tags["layer_type"] == "Conv2D"
    assert spans[0].tags["alloc_bytes"] == 64


def test_layer_tracer_parses_mx_format():
    spans = _published(LayerTracer, mx_profile(_records()), "mxnet_like", None)
    assert len(spans) == 2
    assert spans[1].tags["layer_index"] == 2


def test_layer_tracer_unknown_framework():
    with pytest.raises(ValueError, match="no profile parser"):
        _published(LayerTracer, {}, "caffe2_like", None)


def test_gpu_tracer_builds_launch_and_exec_spans():
    callbacks = CallbackBuffer()
    callbacks.correlation_id.append(9)
    callbacks.start_ns.append(100)
    callbacks.end_ns.append(110)
    acts = ActivityBuffer()
    for column, value in (
        ("kind", "kernel"), ("name", "volta_scudnn"), ("correlation_id", 9),
        ("stream_id", 0), ("start_ns", 150), ("end_ns", 400),
        ("grid", (10, 1, 1)), ("block", (256, 1, 1)),
        ("metric_names", ("flop_count_sp",)), ("metric_values", 5e9),
    ):
        getattr(acts, column).append(value)
    spans = _published(GpuTracer, callbacks, acts)
    launch = next(s for s in spans if s.kind is SpanKind.LAUNCH)
    execution = next(s for s in spans if s.kind is SpanKind.EXECUTION)
    assert launch.correlation_id == execution.correlation_id == 9
    # Launch span is labeled with the kernel it launches.
    assert launch.name == "volta_scudnn"
    assert launch.tags["api"] == "cudaLaunchKernel"
    assert execution.tags["metric.flop_count_sp"] == 5e9
    assert execution.tags["grid"] == (10, 1, 1)

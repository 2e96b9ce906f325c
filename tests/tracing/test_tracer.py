"""Unit tests for tracers: create, tag, publish, keep nothing."""

import pytest

from repro.core.api import start_span
from repro.core.library_level import LibraryTracer
from repro.core.profilers import GpuTracer, LayerTracer, ModelTracer
from repro.frameworks.profiler_format import LayerRecord, tf_step_stats
from repro.sim import VirtualClock
from repro.sim import CudaRuntime, get_system
from repro.sim.cuda import KernelLaunchRecord
from repro.sim.cupti import Cupti
from repro.sim.kernels import KernelClass, KernelSpec
from repro.tracing import Level, Span, Tracer, TracingServer


class _Runtime:
    """Stands in for CudaRuntime's launch log."""

    log: list = []

    def launch_reader(self):
        return lambda: self.log


def _publish_model(server):
    tracer = ModelTracer(server)
    clock = VirtualClock()
    for name in ("input_preprocess", "predict", "output_postprocess"):
        scope = start_span(tracer, clock.now, name, batch=1)
        clock.advance_us(10)
        scope.finish()
    return tracer, 3


def _publish_layers(server):
    tracer = LayerTracer(server)
    records = [
        LayerRecord(1, "conv1/Conv2D", "Conv2D", (4, 8, 8, 8), 0, 1000, 64),
        LayerRecord(2, "relu1/Relu", "Relu", (4, 8, 8, 8), 1000, 1400, 64),
    ]
    tracer.convert(tf_step_stats(records), "tensorflow_like", None)
    return tracer, 2


def _publish_gpu(server):
    tracer = GpuTracer(server)
    runtime = CudaRuntime(get_system("Tesla_V100"))
    cupti = Cupti(runtime)
    cupti.enable_callbacks()
    cupti.enable_activities()
    runtime.launch_kernel(
        KernelSpec("volta_scudnn", KernelClass.CONV_PRECOMP_GEMM, 1e6, 1e4,
                   1e4, blocks=10)
    )
    runtime.memcpy(1_000)
    tracer.convert(*cupti.flush())
    return tracer, 3


def _publish_library(server):
    runtime = _Runtime()
    tracer = LibraryTracer(server, runtime)

    def record(cid, klass, library, layer, t0):
        spec = KernelSpec(f"k{cid}", klass, 1.0, 1.0, 1.0, blocks=1,
                          tags={"library": library})
        return KernelLaunchRecord(cid, spec, 0, t0, t0 + 5, t0 + 10,
                                  t0 + 20, t0 + 20, layer)

    runtime.log = [
        record(1, KernelClass.CONV_PRECOMP_GEMM, "cudnn", 1, 0),
        record(2, KernelClass.CONV_PRECOMP_GEMM, "cudnn", 1, 10),
        record(3, KernelClass.ELEMENTWISE_EIGEN, "eigen", 2, 30),
    ]
    tracer.convert()
    return tracer, 2


@pytest.mark.parametrize(
    "publish", [_publish_model, _publish_layers, _publish_gpu, _publish_library]
)
def test_every_published_span_lands_once_with_its_tracer_tag(publish):
    server = TracingServer()
    tid = server.begin_trace()
    tracer, expected = publish(server)
    trace = server.end_trace(tid)
    assert len(trace) == expected
    span_ids = [s.span_id for s in trace]
    assert len(set(span_ids)) == expected
    for span in trace:
        assert span.tags["tracer"] == tracer.name
        assert span.level == tracer.level
        assert span.trace_id == tid
    # The row in the trace is the only copy: the tracer keeps no spans
    # (the library tracer keeps only its reader of the launch log).
    kept = {k: v for k, v in vars(tracer).items() if v}
    kept.pop("_read_launches", None)
    assert kept == {
        "name": tracer.name, "level": tracer.level, "server": server,
    }


def test_tracer_tags_origin():
    server = TracingServer()
    tid = server.begin_trace()
    tracer = Tracer("layer_tracer", Level.LAYER, server)
    span = Span("op", 0, 10, Level.LAYER)
    tracer.publish(span)
    assert span.tags["tracer"] == "layer_tracer"
    assert server.end_trace(tid).spans[0].tags["tracer"] == "layer_tracer"


def test_existing_tracer_tag_is_kept():
    server = TracingServer()
    tid = server.begin_trace()
    tracer = Tracer("gpu", Level.GPU_KERNEL, server)
    tracer.publish(Span("a", 0, 1, Level.GPU_KERNEL, tags={"tracer": "own"}))
    assert [s.tags["tracer"] for s in server.end_trace(tid)] == ["own"]


def test_span_level_comes_from_tracer():
    """Converters build their spans at their tracer's level."""
    server = TracingServer()
    tid = server.begin_trace()
    for publish in (_publish_layers, _publish_gpu, _publish_library):
        publish(server)
    levels = {s.tags["tracer"]: s.level for s in server.end_trace(tid)}
    assert levels == {
        "layer_tracer": Level.LAYER,
        "gpu_tracer": Level.GPU_KERNEL,
        "library_tracer": Level.LIBRARY,
    }


def test_publish_many_tags_the_batch_in_one_server_call():
    """A converter hands the server its whole batch in a single call:
    plain row tuples whose key tuple ends with the tracer tag."""
    calls = []

    class Server:
        def publish_many(self, rows):
            calls.append(list(rows))

    records = [
        LayerRecord(i, f"l{i}", "Relu", (1,), 10 * i, 10 * i + 5, 4)
        for i in range(3)
    ]
    tracer = LayerTracer(Server())
    tracer.convert(tf_step_stats(records), "tensorflow_like", None)
    [batch] = calls
    assert [type(row) for row in batch] == [tuple] * 3
    for row in batch:
        keys, values = row[-2:]
        assert dict(zip(keys, values))["tracer"] == "layer_tracer"
        assert keys[-1] == "tracer"

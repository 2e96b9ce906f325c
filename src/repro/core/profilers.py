"""The three stack-level tracers (paper Sec. III-B).

1. **ModelTracer** — spans around user code regions (input pre-processing,
   model prediction, output post-processing).
2. **LayerTracer** — consumes the framework profiler's *native* output
   (TF step-stats or MXNet profile dump), converts each layer record to a
   span and parents it on the model-prediction span.  XSP "leverages the
   existing framework's profiling capabilities", so no framework
   modification happens here — only format parsing.
3. **GpuTracer** — consumes CUPTI records: each ``cudaLaunchKernel``
   callback becomes a *launch span*, each kernel activity an *execution
   span*; the two carry the CUPTI ``correlation_id``.  GPU metrics are
   attached to the execution span as ``metric.*`` tags.

Launch spans are published without parents; parent reconstruction happens
offline by interval containment
(:func:`repro.tracing.correlation.reconstruct_parents`).

The layer and GPU tracers convert into row tuples (``SpanTable.append_rows``
order; no ``Span`` or tag dict per record) whose shared key tuples end
with ``tracer``, and publish each batch with one
:meth:`TracingServer.publish_many` call.
"""

from __future__ import annotations

from typing import Any

from repro.frameworks.profiler_format import PARSERS
from repro.sim.cupti import LAUNCH_API, ActivityBuffer, CallbackBuffer
from repro.tracing.server import TracingServer
from repro.tracing.span import Level, SpanKind, new_span_id
from repro.tracing.table import _KIND_CODE, NONE_ID
from repro.tracing.tracer import Tracer

_INTERNAL = _KIND_CODE[SpanKind.INTERNAL]
_LAUNCH = _KIND_CODE[SpanKind.LAUNCH]
_EXECUTION = _KIND_CODE[SpanKind.EXECUTION]

_LAYER_KEYS = ("layer_index", "layer_type", "shape", "alloc_bytes", "tracer")
_LAUNCH_KEYS = ("api", "tracer")
_ACTIVITY_KEYS = ("stream_id", "grid", "block", "activity_kind")


class ModelTracer(Tracer):
    """Tracer for user-code (model-level) spans."""

    def __init__(self, server: TracingServer) -> None:
        super().__init__("model_tracer", Level.MODEL, server)


class LayerTracer(Tracer):
    """Tracer converting framework-native layer profiles into spans."""

    def __init__(self, server: TracingServer) -> None:
        super().__init__("layer_tracer", Level.LAYER, server)

    def convert(
        self,
        native_profile: dict[str, Any],
        framework_name: str,
        parent_span_id: int | None,
    ) -> None:
        """Parse a native profile and publish one span per layer.

        Layer spans are set as children of the model-prediction span, so
        "each layer [is] directly correlated to the model prediction step".
        """
        try:
            parser = PARSERS[framework_name]
        except KeyError:
            raise ValueError(
                f"no profile parser registered for framework {framework_name!r}; "
                f"known: {sorted(PARSERS)}"
            ) from None
        level = int(self.level)
        parent = NONE_ID if parent_span_id is None else parent_span_id
        tracer = self.name
        rows = [
            (name, start_ns, end_ns, level, _INTERNAL, new_span_id(), parent,
             NONE_ID, _LAYER_KEYS,
             (index, layer_type, shape, alloc_bytes, tracer))
            for index, name, layer_type, shape, start_ns, end_ns, alloc_bytes
            in parser(native_profile)
        ]
        self.server.publish_many(rows)


class GpuTracer(Tracer):
    """Tracer converting CUPTI callback/activity buffers into spans."""

    def __init__(self, server: TracingServer) -> None:
        super().__init__("gpu_tracer", Level.GPU_KERNEL, server)

    def convert(
        self, callbacks: CallbackBuffer, activities: ActivityBuffer
    ) -> None:
        """Publish a launch span per callback and an execution span per
        activity — the kernel-dominated bulk of a capture, delivered as
        one batch."""
        level = int(self.level)
        tracer = self.name
        kernel_names = {
            correlation_id: name
            for kind, correlation_id, name in zip(
                activities.kind, activities.correlation_id, activities.name
            )
            if kind == "kernel"
        }
        launch_values = (LAUNCH_API, tracer)
        rows = [
            # Label the launch with the launched kernel when known.
            (kernel_names.get(correlation_id, LAUNCH_API), start, end, level,
             _LAUNCH, new_span_id(), NONE_ID, correlation_id, _LAUNCH_KEYS,
             launch_values)
            for correlation_id, start, end in zip(
                callbacks.correlation_id, callbacks.start_ns, callbacks.end_ns
            )
        ]
        keys_by_metrics: dict[tuple[str, ...], tuple[str, ...]] = {}
        metric_values = activities.metric_values
        at = 0
        for kind, name, correlation_id, stream_id, start, end, grid, block, \
                metrics in zip(
                    activities.kind, activities.name,
                    activities.correlation_id, activities.stream_id,
                    activities.start_ns, activities.end_ns, activities.grid,
                    activities.block, activities.metric_names):
            keys = keys_by_metrics.get(metrics)
            if keys is None:
                keys = keys_by_metrics[metrics] = (
                    _ACTIVITY_KEYS
                    + tuple(f"metric.{metric}" for metric in metrics)
                    + ("tracer",)
                )
            stop = at + len(metrics)
            values = (stream_id, grid, block, kind,
                      *metric_values[at:stop], tracer)
            at = stop
            # Memory copies are synchronous host-visible activities;
            # kernels are the async launch/execution pairs.
            kernel = kind == "kernel"
            rows.append((name, start, end, level,
                         _EXECUTION if kernel else _INTERNAL, new_span_id(),
                         NONE_ID, correlation_id if kernel else NONE_ID,
                         keys, values))
        self.server.publish_many(rows)

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
"""

from __future__ import annotations

from typing import Any

from repro.frameworks.profiler_format import PARSERS
from repro.sim.cupti import ActivityRecord, ApiRecord
from repro.tracing.server import TracingServer
from repro.tracing.span import Level, Span, SpanKind
from repro.tracing.tracer import Tracer


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
        self.publish_many(
            Span(
                name=record.name,
                start_ns=record.start_ns,
                end_ns=record.end_ns,
                level=self.level,
                parent_id=parent_span_id,
                tags={
                    "layer_index": record.index,
                    "layer_type": record.layer_type,
                    "shape": record.shape,
                    "alloc_bytes": record.alloc_bytes,
                },
            )
            for record in parser(native_profile)
        )


class GpuTracer(Tracer):
    """Tracer converting CUPTI callback/activity records into spans."""

    def __init__(self, server: TracingServer) -> None:
        super().__init__("gpu_tracer", Level.GPU_KERNEL, server)

    def convert(
        self,
        api_records: list[ApiRecord],
        activity_records: list[ActivityRecord],
    ) -> None:
        """Publish a launch span per API record, an execution span per
        activity — the kernel-dominated bulk of a capture, delivered as
        one batch."""
        activity_names = {
            a.correlation_id: a.name
            for a in activity_records
            if a.kind == "kernel"
        }

        def spans():
            for api in api_records:
                yield Span(
                    # Label the launch with the launched kernel when known.
                    name=activity_names.get(api.correlation_id, api.name),
                    start_ns=api.start_ns,
                    end_ns=api.end_ns,
                    level=self.level,
                    kind=SpanKind.LAUNCH,
                    correlation_id=api.correlation_id,
                    tags={"api": api.name},
                )
            for act in activity_records:
                tags: dict[str, Any] = {
                    "stream_id": act.stream_id,
                    "grid": act.grid,
                    "block": act.block,
                    "activity_kind": act.kind,
                }
                for metric, value in act.metrics.items():
                    tags[f"metric.{metric}"] = value
                yield Span(
                    name=act.name,
                    start_ns=act.start_ns,
                    end_ns=act.end_ns,
                    level=self.level,
                    # Memory copies are synchronous host-visible activities;
                    # kernels are the async launch/execution pairs.
                    kind=(SpanKind.EXECUTION if act.kind == "kernel"
                          else SpanKind.INTERNAL),
                    correlation_id=(act.correlation_id if act.kind == "kernel"
                                    else None),
                    tags=tags,
                )

        self.publish_many(spans())

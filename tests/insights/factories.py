"""Factories for insight-engine tests.

``make_profile`` builds fully synthetic :class:`ModelProfile` objects
with tunable bottleneck shapes, so each rule can be exercised at and
around its thresholds without running the (comparatively slow) profiling
pipeline.
"""

from __future__ import annotations

import random

from repro.core.pipeline import KernelProfile, LayerProfile, ModelProfile
from repro.tracing import Level, Span, SpanKind, Trace
from repro.tracing.table import _KIND_CODE, NONE_ID


def make_kernel(
    name: str,
    layer_index: int,
    position: int = 0,
    *,
    latency_ms: float = 1.0,
    flops: float = 1e9,
    dram_read: float = 1e6,
    dram_write: float = 1e6,
    occupancy: float = 0.5,
) -> KernelProfile:
    return KernelProfile(
        name=name,
        layer_index=layer_index,
        position=position,
        latency_ms=latency_ms,
        flops=flops,
        dram_read_bytes=dram_read,
        dram_write_bytes=dram_write,
        achieved_occupancy=occupancy,
        grid=(1, 1, 1),
        block=(128, 1, 1),
    )


def make_layer(
    index: int,
    layer_type: str = "Conv2D",
    *,
    latency_ms: float | None = None,
    alloc_bytes: int = 1 << 20,
    kernels: list[KernelProfile] | None = None,
) -> LayerProfile:
    kernels = kernels if kernels is not None else [
        make_kernel(f"kernel_{layer_type.lower()}_{index}", index)
    ]
    kernel_ms = sum(k.latency_ms for k in kernels)
    return LayerProfile(
        index=index,
        name=f"layer{index}/{layer_type}",
        layer_type=layer_type,
        shape=(64, 32, 32),
        latency_ms=latency_ms if latency_ms is not None else kernel_ms * 1.1,
        alloc_bytes=alloc_bytes,
        kernels=tuple(kernels),
    )


def make_profile(
    layers: list[LayerProfile],
    *,
    batch: int = 8,
    system: str = "Tesla_V100",
    model_latency_ms: float | None = None,
) -> ModelProfile:
    total = sum(layer.latency_ms for layer in layers)
    return ModelProfile(
        model_name="synthetic",
        system=system,
        framework="tensorflow_like",
        batch=batch,
        model_latency_ms=(
            model_latency_ms if model_latency_ms is not None else total * 1.05
        ),
        layers=tuple(layers),
        n_runs=1,
    )


def make_matching_trace(
    profile: ModelProfile, *, gap_us: float = 0.0, seed: int = 0
) -> Trace:
    """A trace whose GPU timeline mirrors ``profile``'s kernels.

    One model span, one layer span per layer, and per kernel a
    launch/execution pair with ``gap_us`` of device idle between
    consecutive executions.
    """
    rng = random.Random(seed)
    trace = Trace(trace_id=rng.randint(1, 1 << 30))
    sid = 1
    cursor = 0
    spans: list[Span] = []
    cid = 1
    for layer in profile.layers:
        layer_start = cursor
        for kernel in layer.kernels:
            dur = max(1, int(kernel.latency_ms * 1e6))
            spans.append(
                Span(f"launch:{kernel.name}", cursor, cursor + 500,
                     Level.GPU_KERNEL, span_id=sid, kind=SpanKind.LAUNCH,
                     correlation_id=cid)
            )
            sid += 1
            spans.append(
                Span(kernel.name, cursor + 500, cursor + 500 + dur,
                     Level.GPU_KERNEL, span_id=sid, kind=SpanKind.EXECUTION,
                     correlation_id=cid)
            )
            sid += 1
            cid += 1
            cursor += 500 + dur + int(gap_us * 1e3)
        spans.append(
            Span(f"layer{layer.index}", layer_start, max(cursor, layer_start + 1),
                 Level.LAYER, span_id=sid,
                 tags={"layer_index": layer.index})
        )
        sid += 1
    spans.append(
        Span("predict", 0, max(cursor, 1), Level.MODEL, span_id=sid)
    )
    trace.extend(spans)
    return trace


def build_basic_profile() -> ModelProfile:
    """A mixed profile: conv hotspots plus an element-wise tail."""
    layers = [
        make_layer(0, "Conv2D", kernels=[
            make_kernel("volta_scudnn_128x64_relu", 0, latency_ms=4.0,
                        flops=8e10, dram_read=5e8, dram_write=5e8,
                        occupancy=0.55),
        ]),
        make_layer(1, "BatchNorm", kernels=[
            make_kernel("Eigen::TensorCwiseBinaryOp<scalar_product_op>", 1,
                        latency_ms=0.4, flops=1e7, dram_read=4e8,
                        dram_write=4e8, occupancy=0.8),
        ]),
        make_layer(2, "Relu", kernels=[
            make_kernel("Eigen::TensorCwiseBinaryOp<scalar_max_op>", 2,
                        latency_ms=0.3, flops=0.0, dram_read=4e8,
                        dram_write=4e8, occupancy=0.8),
        ]),
        make_layer(3, "Conv2D", kernels=[
            make_kernel("volta_scudnn_128x64_relu", 3, latency_ms=3.0,
                        flops=6e10, dram_read=4e8, dram_write=4e8,
                        occupancy=0.5),
        ]),
        make_layer(4, "Dense", kernels=[
            make_kernel("volta_sgemm_128x64_nn", 4, latency_ms=1.0,
                        flops=2e10, dram_read=2e8, dram_write=2e8,
                        occupancy=0.6),
        ]),
    ]
    return make_profile(layers)


def span_rows(spans):
    """Spans as ``TracingServer.publish_many`` row tuples, in
    ``SpanTable.append_rows`` field order; ``publish_many`` takes rows
    only."""
    return [
        (s.name, s.start_ns, s.end_ns, int(s.level), _KIND_CODE[s.kind],
         s.span_id, NONE_ID if s.parent_id is None else s.parent_id,
         NONE_ID if s.correlation_id is None else s.correlation_id,
         tuple(s.tags or ()), tuple((s.tags or {}).values()))
        for s in spans
    ]

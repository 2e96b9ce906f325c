"""Insight-engine benchmarks: rules over a 50k-span trace.

Two guarantees are asserted alongside the timings:

* the full rule set analyzes a 50k-span across-stack trace without
  pathological cost, and
* the gap index keeps its index-once/query-many contract — repeated gap
  queries are served from cache (object identity) and cost orders of
  magnitude less than the first, i.e. the insight engine added no new
  O(n) scan to :class:`Trace`.
"""

from __future__ import annotations

import random
import time

from bench_ablation_interval_tree import N_SPANS, make_synthetic_trace

from repro.core.pipeline import KernelProfile, LayerProfile, ModelProfile
from repro.insights import InsightContext, InsightEngine
from repro.tracing import Level, SpanKind

KERNEL_NAMES = (
    "volta_scudnn_128x64_relu_interior_nn_v1",
    "volta_sgemm_128x64_nn",
    "Eigen::TensorCwiseBinaryOp<scalar_sum_op>",
    "tensorflow::BiasNCHWKernel",
)
LAYER_TYPES = ("Conv2D", "BatchNorm", "Relu", "Add", "Dense")


def make_synthetic_profile(n_layers: int = 2000, seed: int = 5) -> ModelProfile:
    """A profile big enough that rule cost, not setup, dominates."""
    rng = random.Random(seed)
    layers = []
    for index in range(n_layers):
        kernels = [
            KernelProfile(
                name=rng.choice(KERNEL_NAMES),
                layer_index=index,
                position=pos,
                latency_ms=rng.uniform(0.01, 2.0),
                flops=rng.uniform(0.0, 1e11),
                dram_read_bytes=rng.uniform(1e5, 1e9),
                dram_write_bytes=rng.uniform(1e5, 1e9),
                achieved_occupancy=rng.uniform(0.1, 1.0),
                grid=(1, 1, 1),
                block=(128, 1, 1),
            )
            for pos in range(rng.randint(1, 3))
        ]
        kernel_ms = sum(k.latency_ms for k in kernels)
        layers.append(
            LayerProfile(
                index=index,
                name=f"layer{index}",
                layer_type=rng.choice(LAYER_TYPES),
                shape=(64, 56, 56),
                latency_ms=kernel_ms * rng.uniform(1.0, 1.5),
                alloc_bytes=rng.randint(1 << 16, 1 << 26),
                kernels=tuple(kernels),
            )
        )
    total = sum(layer.latency_ms for layer in layers)
    return ModelProfile(
        model_name="synthetic50k",
        system="Tesla_V100",
        framework="tensorflow_like",
        batch=64,
        model_latency_ms=total * 1.1,
        layers=tuple(layers),
    )


def _context() -> InsightContext:
    return InsightContext.build(
        make_synthetic_profile(),
        trace=make_synthetic_trace(),  # the ablation's 50k-span shape
        sweep={1: 10.0, 2: 12.0, 4: 16.0, 8: 26.0, 16: 48.0, 32: 95.0},
        peak_device_memory_bytes=int(9e9),
    )


def test_insight_engine_50k_trace(benchmark):
    """All rules over a 50k-span trace + 2k-layer profile."""
    context = _context()
    assert len(context.trace.spans) >= N_SPANS * 0.9
    report = benchmark(lambda: InsightEngine().analyze(context))
    assert len(report.rules_fired) >= 8
    assert not report.skipped_rules


def test_gap_index_no_rescan(benchmark):
    """Cached gap queries are lookups, not scans of the 50k spans."""
    trace = make_synthetic_trace()

    start = time.perf_counter()
    first = trace.index.gaps(Level.GPU_KERNEL, SpanKind.LAUNCH)
    build_s = time.perf_counter() - start

    # Identity: the same snapshot serves the same list object.
    assert trace.index.gaps(Level.GPU_KERNEL, SpanKind.LAUNCH) is first

    n_queries = 1000
    start = time.perf_counter()
    for _ in range(n_queries):
        trace.index.gaps(Level.GPU_KERNEL, SpanKind.LAUNCH)
    cached_s = time.perf_counter() - start
    # 1000 cached queries must cost (much) less than one build; the
    # generous factor keeps the assertion robust on noisy machines while
    # still catching any reintroduced O(n) rescan.
    assert cached_s < build_s * max(1.0, n_queries / 50), (
        f"cached gap queries rescan the trace: first build {build_s:.6f}s, "
        f"{n_queries} cached queries {cached_s:.6f}s"
    )

    benchmark(lambda: trace.index.gaps(Level.GPU_KERNEL, SpanKind.LAUNCH))

"""Synthetic profile factories for the differential-analysis tests.

Mirrors ``tests/insights/factories.py`` (kept separate so the two test
trees don't share a sys.path module name) with helpers to *perturb* a
profile: scale latencies, rename/insert/drop layers, swap kernels —
the shapes the alignment and classification logic must tolerate.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.pipeline import KernelProfile, LayerProfile, ModelProfile


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
    name: str | None = None,
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
        name=name if name is not None else f"layer{index}/{layer_type}",
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
    framework: str = "tensorflow_like",
    model_name: str = "synthetic",
    model_latency_ms: float | None = None,
) -> ModelProfile:
    total = sum(layer.latency_ms for layer in layers)
    return ModelProfile(
        model_name=model_name,
        system=system,
        framework=framework,
        batch=batch,
        model_latency_ms=(
            model_latency_ms if model_latency_ms is not None else total * 1.05
        ),
        layers=tuple(layers),
        n_runs=1,
    )


def build_baseline() -> ModelProfile:
    """Five layers, mixed kernel mix — the diff tests' reference side."""
    layers = [
        make_layer(0, "Conv2D", kernels=[
            make_kernel("volta_scudnn_128x64_relu", 0, latency_ms=4.0,
                        flops=8e10, occupancy=0.55),
        ]),
        make_layer(1, "BatchNorm", kernels=[
            make_kernel("Eigen::BatchNormKernel", 1, latency_ms=0.4,
                        occupancy=0.8),
        ]),
        make_layer(2, "Relu", kernels=[
            make_kernel("Eigen::ReluKernel", 2, latency_ms=0.3,
                        occupancy=0.8),
        ]),
        make_layer(3, "Conv2D", kernels=[
            make_kernel("volta_scudnn_128x64_relu", 3, latency_ms=3.0,
                        flops=6e10, occupancy=0.5),
        ]),
        make_layer(4, "Dense", kernels=[
            make_kernel("volta_sgemm_128x64_nn", 4, latency_ms=1.0,
                        flops=2e10, occupancy=0.6),
        ]),
    ]
    return make_profile(layers)


def scaled(profile: ModelProfile, factor: float) -> ModelProfile:
    """The same profile with every latency multiplied by ``factor``."""
    return replace(
        profile,
        model_latency_ms=profile.model_latency_ms * factor,
        layers=tuple(
            replace(
                layer,
                latency_ms=layer.latency_ms * factor,
                kernels=tuple(
                    replace(k, latency_ms=k.latency_ms * factor)
                    for k in layer.kernels
                ),
            )
            for layer in profile.layers
        ),
    )


def with_kernels(
    profile: ModelProfile, position: int, kernels: list[KernelProfile]
) -> ModelProfile:
    """The same profile with the layer at ``position`` running ``kernels``."""
    layers = list(profile.layers)
    layers[position] = replace(layers[position], kernels=tuple(kernels))
    return replace(profile, layers=tuple(layers))

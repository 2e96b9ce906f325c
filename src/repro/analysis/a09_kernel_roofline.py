"""A9 — GPU kernel roofline analysis (paper Fig. 6)."""

from __future__ import annotations

from repro.analysis.roofline import RooflinePoint, classify
from repro.core.pipeline import ModelProfile


def kernel_roofline(profile: ModelProfile) -> list[RooflinePoint]:
    """One roofline point per kernel invocation."""
    return [
        RooflinePoint(
            label=kernel.name,
            arithmetic_intensity=kernel.arithmetic_intensity,
            arithmetic_throughput_tflops=kernel.arithmetic_throughput_tflops,
            latency_ms=kernel.latency_ms,
        )
        for kernel in profile.kernels
        if kernel.dram_bytes > 0
    ]


def bound_counts(profile: ModelProfile) -> dict[str, int]:
    """How many kernels fall on each side of the roofline ridge."""
    gpu = profile.gpu
    out = {"memory-bound": 0, "compute-bound": 0}
    for point in kernel_roofline(profile):
        out[classify(point, gpu)] += 1
    return out

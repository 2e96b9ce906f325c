"""Shared roofline math (paper Sec. III-D3, Figs. 6/9/10/12).

A kernel/layer/model with arithmetic intensity below the device's ideal
arithmetic intensity (peak FLOPS / memory bandwidth) is memory-bound;
otherwise compute-bound.  Attainable throughput under the roofline is
``min(peak, AI * bandwidth)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import KernelAggregate, is_memory_bound
from repro.sim.hardware import GPUSpec


@dataclass(frozen=True)
class RooflinePoint:
    """One entity placed on the roofline plot."""

    label: str
    arithmetic_intensity: float  # flops / byte
    arithmetic_throughput_tflops: float
    latency_ms: float = 0.0

    def memory_bound(self, gpu: GPUSpec) -> bool:
        return is_memory_bound(self.arithmetic_intensity, gpu)

    def attainable_tflops(self, gpu: GPUSpec) -> float:
        """Roofline ceiling at this point's arithmetic intensity."""
        return min(
            gpu.peak_tflops,
            self.arithmetic_intensity * gpu.memory_bandwidth / 1e12,
        )

    def efficiency(self, gpu: GPUSpec) -> float:
        """Achieved fraction of the attainable roofline throughput."""
        ceiling = self.attainable_tflops(gpu)
        if ceiling == 0:
            return 0.0
        return self.arithmetic_throughput_tflops / ceiling


def classify(point: RooflinePoint, gpu: GPUSpec) -> str:
    return "memory-bound" if point.memory_bound(gpu) else "compute-bound"


def roofline_curve(
    gpu: GPUSpec, intensities: list[float]
) -> list[tuple[float, float]]:
    """(AI, attainable TFLOPS) samples of the device roofline."""
    return [
        (ai, min(gpu.peak_tflops, ai * gpu.memory_bandwidth / 1e12))
        for ai in intensities
    ]


def aggregate_columns(totals: KernelAggregate, gpu: GPUSpec) -> dict[str, object]:
    """The columns Tables IV-VI (A10, A11, A15) show for one aggregate."""
    return {
        "gflops": totals.flops / 1e9,
        "dram_read_mb": totals.dram_read_bytes / 1e6,
        "dram_write_mb": totals.dram_write_bytes / 1e6,
        "occupancy_pct": 100.0 * totals.achieved_occupancy,
        "arithmetic_intensity": totals.arithmetic_intensity,
        "throughput_tflops": totals.arithmetic_throughput_tflops,
        "memory_bound": totals.memory_bound(gpu),
    }

"""Roofline points and tables (paper Sec. III-D3, Figs. 6/9/10/12), read
through the one set of formulas in :mod:`repro.core.pipeline`."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import Column
from repro.core.pipeline import (KernelAggregate, KernelProfile,
                                 attainable_tflops, is_memory_bound)
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
        return attainable_tflops(self.arithmetic_intensity, gpu)

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
    return [(ai, attainable_tflops(ai, gpu)) for ai in intensities]


def aggregate_columns(
    totals: KernelAggregate | KernelProfile, gpu: GPUSpec
) -> dict[str, object]:
    """The columns Tables III-VI (A8, A10, A11, A15) show for one kernel
    or aggregate."""
    return {
        "gflops": totals.flops / 1e9,
        "dram_read_mb": totals.dram_read_bytes / 1e6,
        "dram_write_mb": totals.dram_write_bytes / 1e6,
        "occupancy_pct": 100.0 * totals.achieved_occupancy,
        "arithmetic_intensity": totals.arithmetic_intensity,
        "throughput_tflops": totals.arithmetic_throughput_tflops,
        "memory_bound": totals.memory_bound(gpu),
    }


def aggregate_table_columns(gflops: str) -> list[Column]:
    """The table columns of :func:`aggregate_columns`; ``gflops`` heads
    the flops column."""
    return [
        Column("gflops", gflops, ".2f"),
        Column("dram_read_mb", "DRAM Reads (MB)", ".2f"),
        Column("dram_write_mb", "DRAM Writes (MB)", ".2f"),
        Column("occupancy_pct", "Achieved Occupancy (%)", ".2f"),
        Column("arithmetic_intensity", "Arithmetic Intensity", ".2f"),
        Column("throughput_tflops", "Throughput (Tflops/s)", ".2f"),
        Column("memory_bound", "Memory Bound?"),
    ]

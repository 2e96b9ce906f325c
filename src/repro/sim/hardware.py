"""GPU hardware catalog — the five systems of Table VII.

Theoretical FLOPS and memory bandwidth are taken verbatim from the paper;
the ideal arithmetic intensity (peak FLOPS / bandwidth) therefore matches
Table VII's last column.  SM counts and per-SM thread capacity follow the
public NVIDIA datasheets and only influence the occupancy/efficiency
scaling of the kernel latency model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property


class Architecture(enum.Enum):
    """GPU generations covered by the paper's evaluation."""

    TURING = "turing"
    VOLTA = "volta"
    PASCAL = "pascal"
    MAXWELL = "maxwell"

    @property
    def kernel_prefix(self) -> str:
        """Prefix cuDNN uses when naming SGEMM-style kernels for this arch.

        Paper Sec. IV-C: Volta and Turing invoke ``volta_scudnn_*`` kernels
        while Pascal and Maxwell systems invoke ``maxwell_scudnn_*`` ones —
        cuDNN ships optimized kernels only for generations >= Volta.
        """
        if self in (Architecture.TURING, Architecture.VOLTA):
            return "volta"
        return "maxwell"


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one GPU system (one row of Table VII)."""

    name: str
    cpu: str
    gpu: str
    architecture: Architecture
    peak_tflops: float
    memory_bandwidth_gbps: float
    sm_count: int
    max_threads_per_sm: int = 2048
    l2_cache_mb: float = 6.0
    dram_gb: float = 16.0
    #: Number of hardware performance counters available concurrently;
    #: metrics needing more are collected via kernel replay (Sec. III-C).
    hw_counters: int = 8

    @property
    def peak_flops(self) -> float:
        """Peak single-precision throughput in flops/s."""
        return self.peak_tflops * 1e12

    @property
    def memory_bandwidth(self) -> float:
        """Global memory bandwidth in bytes/s."""
        return self.memory_bandwidth_gbps * 1e9

    @cached_property
    def ideal_arithmetic_intensity(self) -> float:
        """peak FLOPS / memory bandwidth, in flops/byte (Table VII)."""
        return self.peak_flops / self.memory_bandwidth


#: The five evaluation systems (Table VII).  Keyed by the paper's names.
SYSTEMS: dict[str, GPUSpec] = {
    "Quadro_RTX": GPUSpec(
        name="Quadro_RTX",
        cpu="Intel Xeon E5-2630 v4 @ 2.20GHz",
        gpu="Quadro RTX 6000",
        architecture=Architecture.TURING,
        peak_tflops=16.3,
        memory_bandwidth_gbps=624.0,
        sm_count=72,
        max_threads_per_sm=1024,
        l2_cache_mb=6.0,
        dram_gb=24.0,
    ),
    "Tesla_V100": GPUSpec(
        name="Tesla_V100",
        cpu="Intel Xeon E5-2686 v4 @ 2.30GHz",
        gpu="Tesla V100-SXM2-16GB",
        architecture=Architecture.VOLTA,
        peak_tflops=15.7,
        memory_bandwidth_gbps=900.0,
        sm_count=80,
        max_threads_per_sm=2048,
        l2_cache_mb=6.0,
        dram_gb=16.0,
    ),
    "Tesla_P100": GPUSpec(
        name="Tesla_P100",
        cpu="Intel Xeon E5-2682 v4 @ 2.50GHz",
        gpu="Tesla P100-PCIE-16GB",
        architecture=Architecture.PASCAL,
        peak_tflops=9.3,
        memory_bandwidth_gbps=732.0,
        sm_count=56,
        max_threads_per_sm=2048,
        l2_cache_mb=4.0,
        dram_gb=16.0,
    ),
    "Tesla_P4": GPUSpec(
        name="Tesla_P4",
        cpu="Intel Xeon E5-2682 v4 @ 2.50GHz",
        gpu="Tesla P4",
        architecture=Architecture.PASCAL,
        peak_tflops=5.5,
        memory_bandwidth_gbps=192.0,
        sm_count=20,
        max_threads_per_sm=2048,
        l2_cache_mb=2.0,
        dram_gb=8.0,
    ),
    "Tesla_M60": GPUSpec(
        name="Tesla_M60",
        cpu="Intel Xeon E5-2686 v4 @ 2.30GHz",
        gpu="Tesla M60",
        architecture=Architecture.MAXWELL,
        peak_tflops=4.8,
        memory_bandwidth_gbps=160.0,
        sm_count=16,
        max_threads_per_sm=2048,
        l2_cache_mb=2.0,
        dram_gb=8.0,
    ),
}


def get_system(name: str) -> GPUSpec:
    """Look up one of the Table VII systems by its paper name."""
    try:
        return SYSTEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}"
        ) from None

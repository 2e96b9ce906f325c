"""A9 — GPU kernel roofline analysis (paper Fig. 6)."""

from __future__ import annotations

from repro.analysis.roofline import RooflinePoint
from repro.core.pipeline import (ModelProfile, is_memory_bound,
                                 roofline_coordinates)


def kernel_coordinates(
    profile: ModelProfile,
) -> tuple[list[int], list[float], list[float]]:
    """The kernel table rows with DRAM traffic, and each one's arithmetic
    intensity and throughput (Tflops/s)."""
    table = profile.kernel_table
    return roofline_coordinates(table.flops, table.dram_read_bytes,
                                table.dram_write_bytes, table.latency_ms)


def kernel_roofline(profile: ModelProfile) -> list[RooflinePoint]:
    """One roofline point per kernel invocation."""
    table = profile.kernel_table
    return [
        RooflinePoint(table.name[row], intensity, throughput,
                      table.latency_ms[row])
        for row, intensity, throughput in zip(*kernel_coordinates(profile))
    ]


def bound_counts(
    profile: ModelProfile, intensities: list[float] | None = None
) -> dict[str, int]:
    """How many kernels fall on each side of the roofline ridge
    (``intensities`` from :func:`kernel_coordinates`, if already read)."""
    if intensities is None:
        intensities = kernel_coordinates(profile)[1]
    gpu = profile.gpu
    memory = sum(is_memory_bound(ai, gpu) for ai in intensities)
    return {"memory-bound": memory, "compute-bound": len(intensities) - memory}

"""A14 — layer roofline analysis (paper Fig. 9).

Conv2D/MatMul layers are compute-bound; Add/Mul/Relu element-wise layers
are memory-bound.  Requires the layer/kernel correlation.
"""

from __future__ import annotations

from repro.analysis.roofline import RooflinePoint
from repro.core.pipeline import ModelProfile


def layer_roofline(profile: ModelProfile) -> list[RooflinePoint]:
    return [
        RooflinePoint(
            label=f"{layer.index}:{layer.layer_type}",
            arithmetic_intensity=layer.arithmetic_intensity,
            arithmetic_throughput_tflops=layer.arithmetic_throughput_tflops,
            latency_ms=layer.latency_ms,
        )
        for layer in profile.layers
        if layer.kernel_rows and layer.dram_bytes > 0
    ]


def bound_by_layer_type(profile: ModelProfile) -> dict[str, str]:
    """Majority roofline classification per layer type."""
    layer_type = profile.layer_table.layer_type
    votes: dict[str, list[bool]] = {}
    for slot, bound in profile.layer_table.roofline(profile.gpu):
        votes.setdefault(layer_type[slot], []).append(bound)
    return {
        layer_type: (
            "memory-bound"
            if sum(flags) > len(flags) / 2
            else "compute-bound"
        )
        for layer_type, flags in votes.items()
    }

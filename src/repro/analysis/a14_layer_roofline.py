"""A14 — layer roofline analysis (paper Fig. 9).

Conv2D/MatMul layers are compute-bound; Add/Mul/Relu element-wise layers
are memory-bound.  Requires the layer/kernel correlation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.roofline import RooflinePoint
from repro.core.pipeline import ModelProfile, roofline_coordinates


def layer_roofline(profile: ModelProfile) -> list[RooflinePoint]:
    """One roofline point per layer with DRAM traffic, from the layer
    table's kernel totals."""
    table = profile.layer_table
    totals = table.totals
    return [
        RooflinePoint(f"{table.index[slot]}:{table.layer_type[slot]}",
                      intensity, throughput, table.latency_ms[slot])
        for slot, intensity, throughput in zip(*roofline_coordinates(
            totals.flops, totals.dram_read_bytes, totals.dram_write_bytes,
            totals.kernel_latency_ms))
    ]


def bound_by_layer_type(profile: ModelProfile) -> dict[str, str]:
    """Majority roofline classification per layer type."""
    table = profile.layer_table
    return majority_by_type(table.layer_type, table.roofline(profile.gpu))


def majority_by_type(layer_types: Sequence[str],
                     classified: Iterable[tuple[int, bool]]) -> dict[str, str]:
    """Each layer type's majority class among ``(slot, memory-bound)``."""
    votes: dict[str, list[bool]] = {}
    for slot, bound in classified:
        votes.setdefault(layer_types[slot], []).append(bound)
    return {layer_type: "memory-bound" if sum(flags) > len(flags) / 2
            else "compute-bound" for layer_type, flags in votes.items()}

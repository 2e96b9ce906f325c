"""A2 — layer information table (layer-level profiling).

Index, name, type, shape, latency, and allocated memory of every layer
the framework executed (paper Table II shows the top-5 most
time-consuming layers of MLPerf_ResNet50_v1.5).
"""

from __future__ import annotations

from heapq import nlargest
from typing import Iterable

from repro.analysis.tables import Column, Table
from repro.core.pipeline import LayerProfile, ModelProfile


def layer_information_table(
    profile: ModelProfile, layers: Iterable[LayerProfile] | None = None
) -> Table:
    """One row per layer of ``layers`` (default: all of the profile's)."""
    table = Table(
        title=f"A2 layer information: {profile.model_name} "
        f"(batch {profile.batch}) on {profile.system}",
        columns=[
            Column("index", "Layer Index", "d"),
            Column("name", "Layer Name", align="<"),
            Column("layer_type", "Layer Type", align="<"),
            Column("shape", "Layer Shape", align="<"),
            Column("latency_ms", "Latency (ms)", ".2f"),
            Column("alloc_mb", "Alloc Mem (MB)", ".1f"),
        ],
    )
    for layer in profile.layers if layers is None else layers:
        table.add(
            index=layer.index,
            name=layer.name,
            layer_type=layer.layer_type,
            shape="\u27e8" + ", ".join(str(d) for d in layer.shape) + "\u27e9",
            latency_ms=layer.latency_ms,
            alloc_mb=layer.alloc_mb,
        )
    return table


def top_layers(profile: ModelProfile, n: int = 5) -> Table:
    """The paper's Table II: top-N most time-consuming layers (ties in
    execution order); only the N rows shown are built."""
    table = profile.layer_table
    top = nlargest(n, range(len(table)), key=table.latency_ms.__getitem__)
    return layer_information_table(profile, map(table.row, top))

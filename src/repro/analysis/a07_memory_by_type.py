"""A7 — layer memory allocation aggregated by type (paper Fig. 4c)."""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.tables import Column, Table
from repro.core.pipeline import ModelProfile


def memory_by_type(profile: ModelProfile) -> Table:
    layers = profile.layer_table
    totals: dict[str, float] = defaultdict(float)
    for layer_type, alloc in zip(layers.layer_type, layers.alloc_mb):
        totals[layer_type] += alloc
    grand = sum(totals.values())
    table = Table(
        title=f"A7 layer memory allocation by type: {profile.model_name}",
        columns=[
            Column("layer_type", "Layer Type", align="<"),
            Column("alloc_mb", "Alloc Mem (MB)", ".1f"),
            Column("percentage", "Percentage (%)", ".2f"),
        ],
    )
    for layer_type, alloc in sorted(totals.items(), key=lambda kv: -kv[1]):
        table.add(
            layer_type=layer_type,
            alloc_mb=alloc,
            percentage=100.0 * alloc / grand if grand else 0.0,
        )
    return table

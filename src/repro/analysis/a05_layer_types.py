"""A5 — layer type distribution (paper Fig. 4a)."""

from __future__ import annotations

from collections import Counter

from repro.analysis.tables import Column, Table
from repro.core.pipeline import ModelProfile


def layer_type_distribution(profile: ModelProfile) -> Table:
    counts = Counter(profile.layer_table.layer_type)
    total = sum(counts.values())
    table = Table(
        title=f"A5 layer type distribution: {profile.model_name}",
        columns=[
            Column("layer_type", "Layer Type", align="<"),
            Column("count", "Count", "d"),
            Column("percentage", "Percentage (%)", ".2f"),
        ],
    )
    for layer_type, count in counts.most_common():
        table.add(
            layer_type=layer_type, count=count, percentage=100.0 * count / total
        )
    return table

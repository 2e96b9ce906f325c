"""A6 — layer latency aggregated by type (paper Fig. 4b).

Also provides the "percentage of model latency attributed to convolution
layers" metric used throughout the paper's Table VIII (its last column:
Conv2D + DepthwiseConv2dNative share of total layer latency).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.analysis.tables import Column, Table
from repro.core.pipeline import ModelProfile

#: TF layer types counted as convolution by the paper.
CONV_TYPES = ("Conv2D", "DepthwiseConv2dNative", "Convolution")


def share_by_type(title: str, column: Column, layer_types: Sequence[str],
                  values: Sequence[float]) -> Table:
    """``values`` summed per layer type, largest first, each with its
    percentage of the total (A6, A7)."""
    totals: dict[str, float] = defaultdict(float)
    for layer_type, value in zip(layer_types, values):
        totals[layer_type] += value
    grand = sum(totals.values())
    table = Table(title=title, columns=[
        Column("layer_type", "Layer Type", align="<"), column,
        Column("percentage", "Percentage (%)", ".2f")])
    for layer_type, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        table.add(**{"layer_type": layer_type, column.key: value,
                     "percentage": 100.0 * value / grand if grand else 0.0})
    return table


def latency_by_type(profile: ModelProfile) -> Table:
    layers = profile.layer_table
    return share_by_type(f"A6 layer latency by type: {profile.model_name}",
                         Column("latency_ms", "Latency (ms)", ".2f"),
                         layers.layer_type, layers.latency_ms)


def convolution_latency_percentage(profile: ModelProfile) -> float:
    """Table VIII last column: convolution share of total layer latency."""
    table = profile.layer_table
    conv = sum(
        latency
        for layer_type, latency in zip(table.layer_type, table.latency_ms)
        if layer_type in CONV_TYPES
    )
    total = sum(table.latency_ms)
    return 100.0 * conv / total if total else 0.0

"""A7 — layer memory allocation aggregated by type (paper Fig. 4c)."""

from __future__ import annotations

from repro.analysis.a06_latency_by_type import share_by_type
from repro.analysis.tables import Column, Table
from repro.core.pipeline import ModelProfile


def memory_by_type(profile: ModelProfile) -> Table:
    layers = profile.layer_table
    return share_by_type(
        f"A7 layer memory allocation by type: {profile.model_name}",
        Column("alloc_mb", "Alloc Mem (MB)", ".1f"),
        layers.layer_type, layers.alloc_mb)

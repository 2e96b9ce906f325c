"""A3 — per-layer latency in execution order (paper Fig. 5a)."""

from __future__ import annotations

from repro.analysis.stages import dominant_stage
from repro.core.pipeline import ModelProfile


def layer_latency_series(profile: ModelProfile) -> list[tuple[int, float]]:
    """(layer index, latency ms) in execution order."""
    table = profile.layer_table
    return list(zip(table.index, table.latency_ms))


def latency_stage(profile: ModelProfile) -> str:
    """Which execution interval (beginning/middle/end) dominates latency."""
    return dominant_stage(profile, profile.layer_table.latency_ms)

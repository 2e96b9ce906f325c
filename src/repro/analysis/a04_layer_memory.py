"""A4 — per-layer allocated memory in execution order (paper Fig. 5b)."""

from __future__ import annotations

from repro.analysis.stages import dominant_stage
from repro.core.pipeline import ModelProfile


def layer_memory_series(profile: ModelProfile) -> list[tuple[int, float]]:
    """(layer index, allocated MB) in execution order."""
    table = profile.layer_table
    return list(zip(table.index, table.alloc_mb))


def memory_stage(profile: ModelProfile) -> str:
    """Which execution interval dominates memory allocation."""
    return dominant_stage(profile, profile.layer_table.alloc_mb)

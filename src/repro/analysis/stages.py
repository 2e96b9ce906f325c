"""Execution-stage analysis (paper Table IX's last four columns).

"To understand the performance trend within model execution, we divide
the model execution into 3 intervals based on the layer index: beginning,
middle, and end ... then compute the total latency, flops, and memory
accesses within each interval and identify which interval dominates."
"""

from __future__ import annotations

from typing import Sequence

from repro.core.pipeline import ModelProfile

STAGES = ("B", "M", "E")  # beginning, middle, end


def stage_of(position: int, total: int) -> str:
    """Stage label for the layer at ``position`` (0-based) of ``total``."""
    if total <= 0:
        raise ValueError("total must be positive")
    third = total / 3.0
    if position < third:
        return "B"
    if position < 2 * third:
        return "M"
    return "E"


def stage_totals(profile: ModelProfile,
                 value: Sequence[float]) -> dict[str, float]:
    """Each stage's total of ``value``, a column of the profile's layer
    table (one value per slot), summed in slot order."""
    totals = {stage: 0.0 for stage in STAGES}
    n = len(profile.layer_table)
    for position, v in enumerate(value):
        totals[stage_of(position, n)] += v
    return totals


def dominant_stage(profile: ModelProfile, value: Sequence[float]) -> str:
    """The interval with the largest total of ``value`` ("B", "M" or "E")."""
    totals = stage_totals(profile, value)
    return max(STAGES, key=lambda stage: totals[stage])


def stage_summary(profile: ModelProfile) -> dict[str, str]:
    """Table IX's four stage columns for one model profile."""
    table = profile.layer_table
    totals = table.totals
    return {
        "latency": dominant_stage(profile, table.latency_ms),
        "memory": dominant_stage(profile, table.alloc_mb),
        "flops": dominant_stage(profile, totals.flops),
        "access": dominant_stage(profile, totals.dram_bytes),
    }

"""A12 — GPU metrics aggregated per layer (paper Fig. 7).

Total flops, DRAM reads, and DRAM writes per layer in execution order;
requires the layer/kernel correlation.
"""

from __future__ import annotations

from repro.analysis.stages import dominant_stage
from repro.core.pipeline import ModelProfile


def layer_flops_series(profile: ModelProfile) -> list[tuple[int, float]]:
    """(layer index, Gflops)."""
    table = profile.layer_table
    return [(i, flops / 1e9) for i, flops in zip(table.index,
                                                 table.totals.flops)]


def layer_dram_read_series(profile: ModelProfile) -> list[tuple[int, float]]:
    """(layer index, DRAM reads MB)."""
    table = profile.layer_table
    return [(i, reads / 1e6) for i, reads in zip(
        table.index, table.totals.dram_read_bytes)]


def layer_dram_write_series(profile: ModelProfile) -> list[tuple[int, float]]:
    """(layer index, DRAM writes MB)."""
    table = profile.layer_table
    return [(i, writes / 1e6) for i, writes in zip(
        table.index, table.totals.dram_write_bytes)]


def flops_stage(profile: ModelProfile) -> str:
    return dominant_stage(profile, profile.layer_table.totals.flops)


def memory_access_stage(profile: ModelProfile) -> str:
    return dominant_stage(profile, profile.layer_table.totals.dram_bytes)

"""Comparison reports: frameworks and systems side by side.

"The consistent profiling and automated analysis workflows in XSP enable
systematic comparisons of models, frameworks, and hardware" (paper
Sec. I).  These helpers take profiles produced under different
configurations and render the comparison tables Sec. IV builds manually.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.a06_latency_by_type import convolution_latency_percentage
from repro.analysis.tables import Column, Table
from repro.core.pipeline import ModelProfile

_PROFILE_COLUMNS = [
    Column("label", "Configuration", align="<"),
    Column("latency_ms", "Latency (ms)", ".2f"),
    Column("throughput", "Throughput (/s)", ".1f"),
    Column("gpu_pct", "GPU %", ".1f"),
    Column("conv_pct", "Conv %", ".1f"),
    Column("gflops", "Gflops", ".1f"),
    Column("dram_gb", "DRAM (GB)", ".2f"),
    Column("occ_pct", "Occupancy %", ".1f"),
    Column("ai", "Arithmetic Intensity", ".2f"),
    Column("memory_bound", "Memory Bound?"),
]


def _profile_row(label: str, profile: ModelProfile) -> dict:
    return {
        "label": label,
        "latency_ms": profile.model_latency_ms,
        "throughput": profile.throughput,
        "gpu_pct": profile.gpu_latency_percentage,
        "conv_pct": convolution_latency_percentage(profile),
        "gflops": profile.flops / 1e9,
        "dram_gb": profile.dram_bytes / 1e9,
        "occ_pct": 100 * profile.achieved_occupancy,
        "ai": profile.arithmetic_intensity,
        "memory_bound": profile.memory_bound,
    }


def comparison_table(
    profiles: Mapping[str, ModelProfile], *, title: str = "Comparison"
) -> Table:
    """One row per labelled profile, same metrics everywhere."""
    if not profiles:
        raise ValueError("comparison_table needs at least one profile")
    table = Table(title=title, columns=_PROFILE_COLUMNS)
    for label, profile in profiles.items():
        table.add(**_profile_row(label, profile))
    return table


def compare_frameworks(profiles: Sequence[ModelProfile]) -> Table:
    """Framework-vs-framework for one model (paper Sec. IV-B)."""
    _require_uniform(profiles, ("system", "model_name", "batch"))
    return comparison_table(
        {p.framework: p for p in profiles},
        title=f"Framework comparison: {profiles[0].model_name} "
        f"(batch {profiles[0].batch}) on {profiles[0].system}",
    )


def compare_systems(profiles: Sequence[ModelProfile]) -> Table:
    """System-vs-system for one model (paper Sec. IV-C)."""
    _require_uniform(profiles, ("framework", "model_name", "batch"))
    return comparison_table(
        {p.system: p for p in profiles},
        title=f"System comparison: {profiles[0].model_name} "
        f"(batch {profiles[0].batch})",
    )


def _require_uniform(
    profiles: Sequence[ModelProfile], attributes: Sequence[str]
) -> None:
    if not profiles:
        raise ValueError("need at least one profile")
    for attribute in attributes:
        values = {getattr(p, attribute) for p in profiles}
        if len(values) > 1:
            raise ValueError(
                f"profiles differ in {attribute} ({sorted(map(str, values))}); "
                "comparisons must vary exactly one dimension"
            )

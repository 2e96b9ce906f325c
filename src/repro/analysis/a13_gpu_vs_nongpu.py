"""A13 — GPU vs non-GPU latency per layer (paper Fig. 8).

"Subtracting a layer's total GPU kernel latency from its overall latency
computes the time not spent performing GPU computation" — framework
overhead, stalls, synchronization.
"""

from __future__ import annotations

from repro.analysis.tables import Column, Table
from repro.core.pipeline import ModelProfile


def gpu_vs_nongpu_series(
    profile: ModelProfile,
) -> list[tuple[int, float, float]]:
    """(layer index, normalized GPU share, normalized non-GPU share)."""
    table = profile.layer_table
    out = []
    for index, latency, kernel_latency in zip(
            table.index, table.latency_ms, table.totals.kernel_latency_ms):
        if latency <= 0:
            out.append((index, 0.0, 0.0))
            continue
        gpu_share = min(1.0, kernel_latency / latency)
        out.append((index, gpu_share, 1.0 - gpu_share))
    return out


def gpu_vs_nongpu_table(profile: ModelProfile) -> Table:
    table = Table(
        title=f"A13 GPU vs non-GPU latency: {profile.model_name}",
        columns=[
            Column("index", "Layer Index", "d"),
            Column("latency_ms", "Layer Latency (ms)", ".3f"),
            Column("gpu_ms", "GPU (ms)", ".3f"),
            Column("non_gpu_ms", "Non-GPU (ms)", ".3f"),
            Column("gpu_pct", "GPU (%)", ".1f"),
        ],
    )
    layers = profile.layer_table
    for index, latency, gpu_ms, non_gpu_ms in zip(
            layers.index, layers.latency_ms,
            layers.totals.kernel_latency_ms, layers.non_gpu_latency_ms):
        table.add(
            index=index,
            latency_ms=latency,
            gpu_ms=gpu_ms,
            non_gpu_ms=non_gpu_ms,
            gpu_pct=100.0 * gpu_ms / latency if latency else 0.0,
        )
    return table


def model_non_gpu_latency_ms(profile: ModelProfile) -> float:
    """Total model time not attributable to GPU kernels."""
    return max(0.0, profile.model_latency_ms - profile.kernel_latency_ms)

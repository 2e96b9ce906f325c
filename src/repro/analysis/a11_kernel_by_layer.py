"""A11 — GPU kernel information aggregated by layer (paper Table V).

Requires the layer/kernel correlation only XSP provides: "A layer's kernel
latency, flops, DRAM reads and writes are calculated by adding the
corresponding values of all the kernels invoked by that layer."
"""

from __future__ import annotations

from heapq import nlargest
from typing import Iterable

from repro.analysis.roofline import aggregate_columns, aggregate_table_columns
from repro.analysis.tables import Column, Table
from repro.core.pipeline import LayerProfile, ModelProfile


def kernel_by_layer_table(
    profile: ModelProfile, layers: Iterable[LayerProfile] | None = None
) -> Table:
    """One row per layer of ``layers`` (default: all of the profile's)
    that launched kernels."""
    gpu = profile.gpu
    table = Table(
        title=f"A11 GPU kernels aggregated by layer: {profile.model_name} "
        f"(batch {profile.batch}) on {profile.system}",
        columns=[
            Column("index", "Layer Index", "d"),
            Column("latency_ms", "Layer Latency (ms)", ".2f"),
            Column("kernel_latency_ms", "Kernel Latency (ms)", ".2f"),
            *aggregate_table_columns("Layer Gflops"),
        ],
    )
    for layer in profile.layers if layers is None else layers:
        if not layer.kernel_rows:
            continue
        table.add(
            index=layer.index,
            latency_ms=layer.latency_ms,
            kernel_latency_ms=layer.kernel_latency_ms,
            **aggregate_columns(layer.totals, gpu),
        )
    return table


def top_layers_by_kernels(profile: ModelProfile, n: int = 5) -> Table:
    """The paper's Table V: kernel aggregates for the top-N layers (ties
    in execution order); only the N rows shown are built."""
    table = profile.layer_table
    starts = table.kernels.starts
    top = nlargest(n, (slot for slot in range(len(table))
                       if starts[slot + 1] > starts[slot]),
                   key=table.latency_ms.__getitem__)
    return kernel_by_layer_table(profile, map(table.row, top))

"""A10 — GPU kernel information aggregated by name (paper Table IV).

Each row is the :func:`~repro.core.pipeline.kernels_by_name` aggregate
of one kernel name: latency/flops/DRAM summed over its instances, the
latency-weighted occupancy, and arithmetic intensity and throughput
recomputed from those totals — the aggregation rules of Sec. III-D3.
"""

from __future__ import annotations

from repro.analysis.roofline import aggregate_columns, aggregate_table_columns
from repro.analysis.tables import Column, Table
from repro.core.pipeline import ModelProfile, kernels_by_name


def kernel_by_name_table(profile: ModelProfile) -> Table:
    gpu = profile.gpu
    model_latency = profile.model_latency_ms

    table = Table(
        title=f"A10 GPU kernels aggregated by name: {profile.model_name} "
        f"(batch {profile.batch}) on {profile.system}",
        columns=[
            Column("name", "Kernel Name", align="<"),
            Column("count", "Count", "d"),
            Column("latency_ms", "Latency (ms)", ".2f"),
            Column("latency_pct", "Latency (%)", ".2f"),
            *aggregate_table_columns("Gflops"),
        ],
    )
    for name, group in kernels_by_name(profile.kernel_table).items():
        table.add(
            name=name,
            count=group.count,
            latency_ms=group.latency_ms,
            latency_pct=(100.0 * group.latency_ms / model_latency
                         if model_latency else 0.0),
            **aggregate_columns(group, gpu),
        )
    return table.sorted_by("latency_ms", reverse=True)

"""A15 — GPU kernel information aggregated per model (paper Table VI, Fig. 10).

Model-level totals of kernel latency, flops and DRAM traffic; the
latency-weighted achieved occupancy; and the whole-model roofline
classification across batch sizes.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.roofline import (RooflinePoint, aggregate_columns,
                                     aggregate_table_columns)
from repro.analysis.tables import Column, Table
from repro.core.pipeline import ModelProfile


def model_aggregate_row(profile: ModelProfile) -> dict[str, object]:
    return {
        "batch": profile.batch,
        "model_latency_ms": profile.model_latency_ms,
        "kernel_latency_ms": profile.kernel_latency_ms,
        **aggregate_columns(profile.totals, profile.gpu),
    }


def model_aggregate_table(
    sweep: Mapping[int, ModelProfile], *, model_name: str = "", system: str = ""
) -> Table:
    """The paper's Table VI: one row per batch size."""
    table = Table(
        title=f"A15 model aggregate across batch sizes: {model_name} on {system}",
        columns=[
            Column("batch", "Batch Size", "d"),
            Column("model_latency_ms", "Model Latency (ms)", ".2f"),
            Column("kernel_latency_ms", "Kernel Latency (ms)", ".2f"),
            *(column for column in aggregate_table_columns("Model Gflops")
              if column.key != "throughput_tflops"),
        ],
    )
    for batch in sorted(sweep):
        table.add(**model_aggregate_row(sweep[batch]))
    return table


def model_roofline_points(
    sweep: Mapping[int, ModelProfile]
) -> list[RooflinePoint]:
    """Fig. 10: the model's roofline position per batch size."""
    return [
        RooflinePoint(
            label=f"bs{batch}",
            arithmetic_intensity=sweep[batch].arithmetic_intensity,
            arithmetic_throughput_tflops=sweep[batch].arithmetic_throughput_tflops,
            latency_ms=sweep[batch].model_latency_ms,
        )
        for batch in sorted(sweep)
    ]

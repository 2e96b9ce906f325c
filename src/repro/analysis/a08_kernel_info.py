"""A8 — GPU kernel information table (paper Table III).

Every kernel invocation with its layer correlation, latency, flops, DRAM
reads/writes, achieved occupancy, arithmetic intensity/throughput, and
memory-boundedness.
"""

from __future__ import annotations

from heapq import nlargest
from typing import Iterable

from repro.analysis.roofline import aggregate_columns, aggregate_table_columns
from repro.analysis.tables import Column, Table
from repro.core.pipeline import KernelProfile, ModelProfile


def kernel_information_table(
    profile: ModelProfile, kernels: Iterable[KernelProfile] | None = None
) -> Table:
    """One row per kernel of ``kernels`` (default: all of the profile's)."""
    gpu = profile.gpu
    table = Table(
        title=f"A8 GPU kernel information: {profile.model_name} "
        f"(batch {profile.batch}) on {profile.system}",
        columns=[
            Column("name", "Kernel Name", align="<"),
            Column("layer_index", "Layer Index", "d"),
            Column("latency_ms", "Kernel Latency (ms)", ".2f"),
            *aggregate_table_columns("Kernel Gflops"),
        ],
    )
    for kernel in profile.kernels if kernels is None else kernels:
        table.add(name=kernel.name, layer_index=kernel.layer_index,
                  latency_ms=kernel.latency_ms,
                  **aggregate_columns(kernel, gpu))
    return table


def top_kernels(profile: ModelProfile, n: int = 5) -> Table:
    """The paper's Table III: top-N most time-consuming kernel calls
    (ties in launch order), ranked on the latency column; only the N
    rows shown become kernel objects."""
    kernels = profile.kernel_table
    latency = kernels.latency_ms
    top = nlargest(n, range(len(latency)), key=latency.__getitem__)
    return kernel_information_table(profile, map(kernels.row, top))

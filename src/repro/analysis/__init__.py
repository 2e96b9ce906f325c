"""The 15 automated analyses of paper Table I.

Each analysis consumes :class:`repro.core.pipeline.ModelProfile` objects
(or batch sweeps of them) produced by the analysis pipeline and emits
tables/series matching the paper's figures and tables.  The registry at
the bottom records, for every analysis, the profiling levels it requires
and which existing tool classes could perform it — reproducing Table I's
capability matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.a01_model_info import (
    model_information_table,
    optimal_batch_for_latency_target,
    optimal_batch_size,
    throughputs,
)
from repro.analysis.a02_layer_info import layer_information_table, top_layers
from repro.analysis.a03_layer_latency import latency_stage, layer_latency_series
from repro.analysis.a04_layer_memory import layer_memory_series, memory_stage
from repro.analysis.a05_layer_types import layer_type_distribution
from repro.analysis.a06_latency_by_type import (
    convolution_latency_percentage,
    latency_by_type,
)
from repro.analysis.a07_memory_by_type import memory_by_type
from repro.analysis.a08_kernel_info import kernel_information_table, top_kernels
from repro.analysis.a09_kernel_roofline import (
    bound_counts,
    kernel_coordinates,
    kernel_roofline,
)
from repro.analysis.a10_kernel_by_name import kernel_by_name_table
from repro.analysis.a11_kernel_by_layer import (
    kernel_by_layer_table,
    top_layers_by_kernels,
)
from repro.analysis.a12_layer_metrics import (
    flops_stage,
    layer_dram_read_series,
    layer_dram_write_series,
    layer_flops_series,
    memory_access_stage,
)
from repro.analysis.a13_gpu_vs_nongpu import (
    gpu_vs_nongpu_series,
    gpu_vs_nongpu_table,
    model_non_gpu_latency_ms,
)
from repro.analysis.a14_layer_roofline import bound_by_layer_type, layer_roofline
from repro.analysis.a15_model_aggregate import (
    model_aggregate_row,
    model_aggregate_table,
    model_roofline_points,
)
from repro.analysis.roofline import RooflinePoint, classify, roofline_curve
from repro.analysis.stages import dominant_stage, stage_of, stage_summary
from repro.analysis.tables import Column, Table


@dataclass(frozen=True)
class AnalysisInfo:
    """One row of the paper's Table I capability matrix."""

    analysis_id: str
    description: str
    levels: str  # profiling levels required: M, L, G combinations
    end_to_end_benchmarking: bool
    framework_profilers: bool
    nvidia_profilers: bool
    xsp: bool = True


#: Table I verbatim: which tool classes can perform each analysis.
ANALYSIS_REGISTRY: tuple[AnalysisInfo, ...] = (
    AnalysisInfo("A1", "Model information table", "M", True, False, False),
    AnalysisInfo("A2", "Layer information table", "L", False, True, False),
    AnalysisInfo("A3", "Layer latency", "L", False, True, False),
    AnalysisInfo("A4", "Layer memory allocation", "L", False, True, False),
    AnalysisInfo("A5", "Layer type distribution", "L", False, True, False),
    AnalysisInfo("A6", "Layer latency aggregated by type", "L", False, True, False),
    AnalysisInfo(
        "A7", "Layer memory allocation aggregated by type", "L", False, True, False
    ),
    AnalysisInfo("A8", "GPU kernel information table", "G", False, False, True),
    AnalysisInfo("A9", "GPU kernel roofline", "G", False, False, True),
    AnalysisInfo(
        "A10", "GPU kernel information aggregated by name table", "G",
        False, False, True,
    ),
    AnalysisInfo(
        "A11", "GPU kernel information aggregated by layer table", "L/G",
        False, False, False,
    ),
    AnalysisInfo("A12", "GPU metrics aggregated by layer", "L/G", False, False, False),
    AnalysisInfo("A13", "GPU vs Non-GPU latency", "L/G", False, False, False),
    AnalysisInfo("A14", "Layer roofline", "L/G", False, False, False),
    AnalysisInfo(
        "A15", "GPU kernel information aggregated by model table", "M/G",
        False, False, True,
    ),
)

__all__ = [
    "ANALYSIS_REGISTRY",
    "AnalysisInfo",
    "Column",
    "RooflinePoint",
    "Table",
    "bound_by_layer_type",
    "bound_counts",
    "classify",
    "convolution_latency_percentage",
    "dominant_stage",
    "flops_stage",
    "gpu_vs_nongpu_series",
    "gpu_vs_nongpu_table",
    "kernel_by_layer_table",
    "kernel_by_name_table",
    "kernel_information_table",
    "kernel_coordinates",
    "kernel_roofline",
    "latency_by_type",
    "latency_stage",
    "layer_dram_read_series",
    "layer_dram_write_series",
    "layer_flops_series",
    "layer_information_table",
    "layer_latency_series",
    "layer_memory_series",
    "layer_roofline",
    "layer_type_distribution",
    "memory_access_stage",
    "memory_by_type",
    "memory_stage",
    "model_aggregate_row",
    "model_aggregate_table",
    "model_information_table",
    "optimal_batch_for_latency_target",
    "model_non_gpu_latency_ms",
    "model_roofline_points",
    "optimal_batch_size",
    "roofline_curve",
    "stage_of",
    "stage_summary",
    "throughputs",
    "top_kernels",
    "top_layers",
    "top_layers_by_kernels",
]

"""Full per-model text report combining all 15 analyses.

One call -> the across-stack characterization the paper walks through in
Sec. III-D for MLPerf_ResNet50_v1.5: model info, layer tables and
aggregations, kernel tables, rooflines, GPU-vs-non-GPU split, and the
model-level aggregate.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis import (
    bound_counts,
    kernel_coordinates,
    convolution_latency_percentage,
    gpu_vs_nongpu_series,
    kernel_by_name_table,
    latency_by_type,
    latency_stage,
    layer_type_distribution,
    memory_by_type,
    memory_stage,
    model_aggregate_table,
    model_information_table,
    top_kernels,
    top_layers,
    top_layers_by_kernels,
)
from repro.analysis.plots import ascii_roofline
from repro.core.pipeline import ModelProfile


def full_report(
    profile: ModelProfile,
    sweep: Mapping[int, ModelProfile] | None = None,
    *,
    top_n: int = 5,
) -> str:
    """Render the complete analysis suite for one profiled model."""
    sections: list[str] = []
    header = (
        f"XSP across-stack report: {profile.model_name} | system "
        f"{profile.system} | framework {profile.framework} | batch "
        f"{profile.batch} | runs {profile.n_runs}"
    )
    sections.append(header)
    sections.append("#" * len(header))

    sections.append(
        f"model latency {profile.model_latency_ms:.2f} ms | throughput "
        f"{profile.throughput:.1f} inputs/s | GPU latency "
        f"{profile.gpu_latency_percentage:.1f}% | conv latency "
        f"{convolution_latency_percentage(profile):.1f}% | "
        f"{'memory' if profile.memory_bound else 'compute'}-bound"
    )
    if profile.overheads:
        overhead = " | ".join(
            f"{label}: +{ms:.2f} ms" for label, ms in profile.overheads.items()
        )
        sections.append(f"profiling overhead per level ({overhead})")

    if sweep:
        latencies = {b: p.model_latency_ms for b, p in sweep.items()}
        sections.append(
            model_information_table(
                latencies, model_name=profile.model_name, system=profile.system
            ).render()
        )

    sections.append(top_layers(profile, top_n).render())
    sections.append(layer_type_distribution(profile).render(max_rows=10))
    sections.append(latency_by_type(profile).render(max_rows=10))
    sections.append(memory_by_type(profile).render(max_rows=10))
    sections.append(
        f"A3/A4 dominant stages: latency={latency_stage(profile)} "
        f"memory={memory_stage(profile)}"
    )
    sections.append(top_kernels(profile, top_n).render())
    sections.append(kernel_by_name_table(profile).head(top_n).render())
    sections.append(top_layers_by_kernels(profile, top_n).render())

    _, intensities, throughputs = kernel_coordinates(profile)
    counts = bound_counts(profile, intensities)
    sections.append(
        f"A9 kernel roofline: {counts['compute-bound']} compute-bound, "
        f"{counts['memory-bound']} memory-bound kernels "
        f"(ideal AI {profile.gpu.ideal_arithmetic_intensity:.2f} flops/byte)"
    )
    try:
        sections.append(ascii_roofline(intensities, throughputs, profile.gpu))
    except ValueError:
        pass  # nothing plottable (e.g. zero-traffic kernels only)

    series = gpu_vs_nongpu_series(profile)
    mean_gpu = sum(s[1] for s in series) / len(series) if series else 0.0
    sections.append(
        f"A13 mean per-layer GPU share {100 * mean_gpu:.1f}% "
        f"(model-level GPU share {profile.gpu_latency_percentage:.1f}%)"
    )

    if sweep:
        sections.append(
            model_aggregate_table(
                sweep, model_name=profile.model_name, system=profile.system
            ).render()
        )

    return "\n\n".join(sections)

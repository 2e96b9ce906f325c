"""Layer-level rules: roofline classification, fusion runs, host/GPU split.

These reuse the existing analysis machinery — the roofline module's
memory-bound classification (A14) and the GPU-vs-non-GPU decomposition
(A13) — and turn their tables into ranked findings.
"""

from __future__ import annotations

from heapq import nlargest
from itertools import groupby

from repro.analysis.a13_gpu_vs_nongpu import model_non_gpu_latency_ms
from repro.analysis.a14_layer_roofline import majority_by_type
from repro.core.pipeline import LayerTable
from repro.insights.engine import InsightContext
from repro.insights.model import Evidence, Insight, ramp
from repro.insights.registry import rule

#: Share of GPU time in memory-bound layers that makes the model
#: bandwidth-limited in practice.
MEMORY_BOUND_WARN_SHARE = 0.40
MEMORY_BOUND_SATURATION = 0.90

#: Layer types cheap enough that adjacent runs should be fused.
ELEMENTWISE_TYPES = frozenset(
    {
        "Add",
        "BatchNorm",
        "BiasAdd",
        "Clip",
        "Elu",
        "LeakyRelu",
        "Mul",
        "Relu",
        "Relu6",
        "Scale",
        "Sigmoid",
        "Sub",
        "Tanh",
    }
)
FUSION_WARN_SHARE = 0.05
FUSION_SATURATION = 0.35
TOP_RUNS = 5

#: Model-latency share outside GPU kernels worth flagging (paper Fig. 8
#: attributes it to framework overhead, stalls and synchronization).
NON_GPU_WARN_SHARE = 0.20
NON_GPU_SATURATION = 0.70
TOP_LAYERS = 5


@rule(
    "memory-bound-layers",
    description="share of GPU time spent in memory-bound (roofline) layers",
)
def memory_bound_layers(ctx: InsightContext) -> list[Insight]:
    profile = ctx.profile
    gpu = ctx.gpu
    layers = profile.layer_table
    latency = layers.totals.kernel_latency_ms
    classified = layers.roofline(gpu)
    total_ms = sum(latency[slot] for slot, _ in classified)
    if not classified or total_ms <= 0:
        return []
    memory_bound = [slot for slot, bound in classified if bound]
    mem_ms = sum(latency[slot] for slot in memory_bound)
    share = mem_ms / total_ms

    per_type = majority_by_type(layers.layer_type, classified)
    mem_types = sorted(t for t, b in per_type.items() if b == "memory-bound")
    top_mem = [layers.row(slot) for slot in nlargest(
        TOP_LAYERS, memory_bound, key=latency.__getitem__)]
    evidence = [
        Evidence(
            kind="layer",
            summary=(
                f"{len(memory_bound)}/{len(classified)} classified layers are "
                f"memory-bound, {mem_ms:.3f} ms of {total_ms:.3f} ms GPU time "
                f"({100 * share:.1f}%); memory-bound types: "
                f"{', '.join(mem_types) if mem_types else 'none'}"
            ),
            layer_indices=tuple(l.index for l in top_mem),
            measured={
                "memory_bound_share": share,
                "memory_bound_ms": mem_ms,
                "n_memory_bound": float(len(memory_bound)),
                "n_classified": float(len(classified)),
            },
            threshold={"memory_bound_share": MEMORY_BOUND_WARN_SHARE},
        )
    ]
    for layer in top_mem:
        evidence.append(
            Evidence(
                kind="layer",
                summary=(
                    f"layer {layer.index} {layer.name} ({layer.layer_type}): "
                    f"AI {layer.arithmetic_intensity:.2f} flops/B vs ideal "
                    f"{gpu.ideal_arithmetic_intensity:.2f}, "
                    f"{layer.kernel_latency_ms:.3f} ms"
                ),
                layer_indices=(layer.index,),
                measured={
                    "arithmetic_intensity": layer.arithmetic_intensity,
                    "kernel_latency_ms": layer.kernel_latency_ms,
                },
                threshold={
                    "arithmetic_intensity": gpu.ideal_arithmetic_intensity
                },
            )
        )
    return [
        Insight(
            rule="memory-bound-layers",
            title=(
                f"{100 * share:.1f}% of GPU time in memory-bound layers "
                f"({'memory' if profile.memory_bound else 'compute'}-bound "
                "model overall)"
            ),
            severity=ramp(share, MEMORY_BOUND_WARN_SHARE / 2,
                          MEMORY_BOUND_SATURATION),
            recommendation=(
                "raise arithmetic intensity where the bandwidth ceiling "
                "binds: fuse element-wise chains into producers, use "
                "channels-last layouts, or move the hottest memory-bound "
                "types to tensor-core/library implementations"
            ),
            evidence=tuple(evidence),
        )
    ]


def _fusion_runs(layers: LayerTable) -> list[list[int]]:
    """Maximal runs of >= 2 adjacent element-wise layers with kernels,
    as slots."""
    starts = layers.kernels.starts
    fusable = [hi > lo and layer_type in ELEMENTWISE_TYPES for layer_type, lo, hi
               in zip(layers.layer_type, starts, starts[1:])]
    runs = (list(run) for is_fusable, run
            in groupby(range(len(fusable)), fusable.__getitem__) if is_fusable)
    return [run for run in runs if len(run) >= 2]


@rule(
    "layer-fusion-candidates",
    description="adjacent element-wise layers each paying their own kernel "
    "launches — fusion candidates",
)
def layer_fusion_candidates(ctx: InsightContext) -> list[Insight]:
    profile = ctx.profile
    layers = profile.layer_table
    runs = _fusion_runs(layers)
    if not runs or profile.model_latency_ms <= 0:
        return []
    latency, starts = layers.latency_ms, layers.kernels.starts
    run_ms = [sum(latency[slot] for slot in run) for run in runs]
    launches = [starts[run[-1] + 1] - starts[run[0]] for run in runs]
    share = sum(run_ms) / profile.model_latency_ms
    n_layers = sum(len(run) for run in runs)
    n_launches = sum(launches)

    evidence = []
    for i in nlargest(TOP_RUNS, range(len(runs)), key=run_ms.__getitem__):
        run = runs[i]
        chain = " -> ".join(
            f"{layers.layer_type[slot]}[{layers.index[slot]}]" for slot in run)
        evidence.append(
            Evidence(
                kind="layer",
                summary=(
                    f"{chain}: {run_ms[i]:.3f} ms, "
                    f"{launches[i]} kernel launches"
                ),
                layer_indices=tuple(layers.index[slot] for slot in run),
                measured={
                    "run_latency_ms": run_ms[i],
                    "n_launches": float(launches[i]),
                },
                threshold={"min_run_length": 2.0},
            )
        )
    return [
        Insight(
            rule="layer-fusion-candidates",
            title=(
                f"{len(runs)} fusable element-wise chains ({n_layers} layers, "
                f"{n_launches} launches, {100 * share:.1f}% of model latency)"
            ),
            severity=ramp(share, FUSION_WARN_SHARE / 2, FUSION_SATURATION),
            recommendation=(
                "each chain re-reads its tensor from DRAM per op; fusing the "
                "chain into one kernel (or its producer conv/GEMM epilogue) "
                "removes the intermediate traffic and launch overhead"
            ),
            evidence=tuple(evidence),
        )
    ]


@rule(
    "host-gpu-imbalance",
    description="model latency not covered by GPU kernel execution (A13)",
)
def host_gpu_imbalance(ctx: InsightContext) -> list[Insight]:
    profile = ctx.profile
    if profile.model_latency_ms <= 0:
        return []
    non_gpu_ms = model_non_gpu_latency_ms(profile)
    share = non_gpu_ms / profile.model_latency_ms
    layers = profile.layer_table
    latency, non_gpu = layers.latency_ms, layers.non_gpu_latency_ms
    worst = [layers.row(slot) for slot in nlargest(
        TOP_LAYERS, [slot for slot, ms in enumerate(latency) if ms > 0],
        key=non_gpu.__getitem__)]
    evidence = [
        Evidence(
            kind="layer",
            summary=(
                f"{non_gpu_ms:.3f} ms of {profile.model_latency_ms:.3f} ms "
                f"model latency ({100 * share:.1f}%) outside GPU kernels"
            ),
            measured={
                "non_gpu_ms": non_gpu_ms,
                "model_latency_ms": profile.model_latency_ms,
                "non_gpu_share": share,
            },
            threshold={"non_gpu_share": NON_GPU_WARN_SHARE},
        )
    ]
    for layer in worst:
        layer_share = (
            layer.non_gpu_latency_ms / layer.latency_ms
            if layer.latency_ms
            else 0.0
        )
        evidence.append(
            Evidence(
                kind="layer",
                summary=(
                    f"layer {layer.index} {layer.name} ({layer.layer_type}): "
                    f"{layer.non_gpu_latency_ms:.3f} ms non-GPU "
                    f"({100 * layer_share:.1f}% of the layer)"
                ),
                layer_indices=(layer.index,),
                measured={
                    "non_gpu_ms": layer.non_gpu_latency_ms,
                    "non_gpu_share": layer_share,
                },
            )
        )
    return [
        Insight(
            rule="host-gpu-imbalance",
            title=(
                f"{100 * share:.1f}% of model latency spent outside GPU "
                "kernels"
            ),
            severity=ramp(share, NON_GPU_WARN_SHARE / 2, NON_GPU_SATURATION),
            recommendation=(
                "host-side framework overhead, launch latency and "
                "synchronization dominate the gap; batch more work per "
                "launch, pin the input pipeline, or amortize via larger "
                "batches"
            ),
            evidence=tuple(evidence),
        )
    ]

"""Scaling rules: batch-size knee detection and device-memory pressure.

The knee rule consumes sweep results (batch -> latency), applying the
paper's optimal-batch-size criterion (Sec. III-D1): the smallest batch
whose doubling gains under 5% throughput.  The memory rule watches the
profiled configuration's distance from :class:`OutOfDeviceMemoryError`
territory.
"""

from __future__ import annotations

from heapq import nlargest

from repro.analysis.a01_model_info import optimal_batch_size, throughputs
from repro.insights.engine import InsightContext
from repro.insights.model import Evidence, Insight, ramp
from repro.insights.registry import rule

#: The paper's doubling-gain threshold for the optimal batch size.
KNEE_GAIN_THRESHOLD = 0.05
#: Throughput headroom (vs the knee) at which under-batching saturates.
HEADROOM_SATURATION = 1.0

#: Device-memory usage fractions for the pressure warning.
MEMORY_WARN_USAGE = 0.75
MEMORY_SATURATION = 1.0
TOP_ALLOC_LAYERS = 5


@rule(
    "batch-scaling-knee",
    description="position of the profiled batch size relative to the "
    "throughput knee of the batch sweep",
    requires=("profile", "sweep"),
)
def batch_scaling_knee(ctx: InsightContext) -> list[Insight]:
    latencies = ctx.sweep_latencies_ms
    tput = throughputs(latencies)
    if len(tput) < 2:
        return []
    knee = optimal_batch_size(latencies, threshold=KNEE_GAIN_THRESHOLD)
    batch = ctx.profile.batch
    # Throughput at the profiled batch: measured if swept, else the
    # profile's own numbers.
    batch_tput = tput.get(batch, ctx.profile.throughput)
    knee_tput = tput[knee]

    curve = ", ".join(
        f"bs{b}: {tput[b]:.0f}/s" for b in sorted(tput)
    )
    base_evidence = Evidence(
        kind="sweep",
        summary=f"throughput curve — {curve}; knee at batch {knee}",
        measured={str(b): tput[b] for b in sorted(tput)},
        threshold={"doubling_gain": KNEE_GAIN_THRESHOLD},
    )

    if batch < knee:
        # batch_tput may come from the merged profile (when the batch was
        # not swept), measured differently than the sweep curve — clamp so
        # measurement-skew can only lower the severity, not flip the
        # insight's direction.
        headroom = max(0.0, knee_tput / batch_tput - 1.0)
        return [
            Insight(
                rule="batch-scaling-knee",
                title=(
                    f"batch {batch} is below the throughput knee "
                    f"(batch {knee}): {100 * headroom:.0f}% headroom"
                ),
                severity=ramp(headroom, KNEE_GAIN_THRESHOLD,
                              HEADROOM_SATURATION),
                recommendation=(
                    f"serving at batch {knee} raises throughput from "
                    f"{batch_tput:.0f} to {knee_tput:.0f} inputs/s; "
                    "batch requests up to the knee unless latency targets "
                    "forbid it"
                ),
                evidence=(
                    base_evidence,
                    Evidence(
                        kind="sweep",
                        summary=(
                            f"batch {batch}: {batch_tput:.0f} inputs/s vs "
                            f"{knee_tput:.0f} at the knee"
                        ),
                        measured={
                            "batch_throughput": batch_tput,
                            "knee_throughput": knee_tput,
                            "headroom": headroom,
                        },
                        threshold={"headroom": KNEE_GAIN_THRESHOLD},
                    ),
                ),
            )
        ]
    # At or beyond the knee: doubling buys nothing but latency and memory.
    overshoot = batch / knee if knee else 1.0
    return [
        Insight(
            rule="batch-scaling-knee",
            title=(
                f"batch {batch} is at/above the throughput knee "
                f"(batch {knee})"
            ),
            severity=ramp(overshoot, 2.0, 8.0),
            recommendation=(
                "throughput has saturated; larger batches only add latency "
                "and memory pressure — scale out across replicas instead of "
                "up in batch size"
            ),
            evidence=(base_evidence,),
        )
    ]


@rule(
    "memory-pressure",
    description="device-memory high-water mark approaching the "
    "OutOfDeviceMemoryError threshold",
)
def memory_pressure(ctx: InsightContext) -> list[Insight]:
    profile = ctx.profile
    capacity = profile.gpu.dram_gb * 1e9
    if capacity <= 0:
        return []
    peak = ctx.peak_device_memory_bytes
    source = "measured high-water mark"
    if peak is None:
        # Upper bound from the layer-level profile: weights + activations
        # allocated across the run (liveness-based freeing makes the true
        # peak lower, so this only over-warns, never under-warns).
        peak = sum(profile.layer_table.alloc_bytes)
        source = "sum of per-layer allocations (upper bound)"
    usage = peak / capacity
    layers = profile.layer_table
    alloc = layers.alloc_bytes
    top = [layers.row(slot) for slot in nlargest(
        TOP_ALLOC_LAYERS, range(len(alloc)), key=alloc.__getitem__)]
    evidence = [
        Evidence(
            kind="memory",
            summary=(
                f"{peak / 1e9:.2f} GB of {capacity / 1e9:.1f} GB device "
                f"memory ({100 * usage:.1f}%) — {source}"
            ),
            measured={
                "peak_bytes": float(peak),
                "capacity_bytes": capacity,
                "usage": usage,
            },
            threshold={"usage": MEMORY_WARN_USAGE},
        )
    ]
    for layer in top:
        if layer.alloc_bytes <= 0:
            continue
        evidence.append(
            Evidence(
                kind="memory",
                summary=(
                    f"layer {layer.index} {layer.name} ({layer.layer_type}) "
                    f"allocates {layer.alloc_mb:.1f} MB"
                ),
                layer_indices=(layer.index,),
                measured={"alloc_bytes": float(layer.alloc_bytes)},
            )
        )
    if usage >= MEMORY_WARN_USAGE:
        title = (
            f"device memory {100 * usage:.1f}% full — near the "
            "out-of-memory threshold"
        )
        recommendation = (
            "the next batch-size doubling will likely raise "
            "OutOfDeviceMemoryError; cap the batch, shrink workspaces, or "
            "move to a larger-memory system"
        )
    else:
        title = f"device memory usage {100 * usage:.1f}% of capacity"
        recommendation = (
            "memory is not the binding constraint at this configuration; "
            "batch scaling headroom remains before the OOM threshold"
        )
    return [
        Insight(
            rule="memory-pressure",
            title=title,
            severity=ramp(usage, MEMORY_WARN_USAGE / 2, MEMORY_SATURATION),
            recommendation=recommendation,
            evidence=tuple(evidence),
        )
    ]

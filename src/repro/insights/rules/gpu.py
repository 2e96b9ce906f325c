"""GPU-kernel-level rules: idle bubbles, hotspots, library mix, occupancy.

These rules consume the device side of the across-stack profile — the
merged kernel records and (for timeline rules) the raw trace — and map
directly onto the paper's kernel-level analyses (A8-A11).
"""

from __future__ import annotations

from heapq import nlargest
from operator import attrgetter, sub

from repro.core.pipeline import kernels_by_name
from repro.insights.engine import InsightContext
from repro.insights.model import Evidence, Insight, ramp
from repro.insights.registry import rule
from repro.tracing.span import Level, SpanKind

#: Device-idle fraction at which bubbles become worth reporting / saturate.
IDLE_WARN_FRACTION = 0.10
IDLE_SATURATION = 0.50
#: Largest individual gaps quoted as evidence.
TOP_GAPS = 5

#: Kernel-name latency share at which one kernel counts as a hotspot.
HOTSPOT_WARN_SHARE = 0.25
HOTSPOT_SATURATION = 0.70

#: Latency share in non-library kernels worth flagging.
CUSTOM_WARN_SHARE = 0.15
CUSTOM_SATURATION = 0.60
#: Substrings identifying vendor-library (cuDNN/cuBLAS) kernels.
LIBRARY_KERNEL_MARKERS = ("scudnn", "sgemm", "cgemm", "cudnn", "cublas")

#: Latency-weighted achieved occupancy below which the device is starved.
OCCUPANCY_WARN = 0.60
OCCUPANCY_FLOOR = 0.15
LOW_OCCUPANCY_KERNEL = 0.40
TOP_KERNELS = 5


_gap_start, _gap_end = attrgetter("start_ns"), attrgetter("end_ns")


@rule(
    "gpu-idle-bubbles",
    description="device-idle gaps between GPU kernel executions "
    "(served by the trace's gap index)",
    requires=("profile", "trace"),
)
def gpu_idle_bubbles(ctx: InsightContext) -> list[Insight]:
    trace = ctx.trace
    assert trace is not None  # guaranteed by requires
    # Column-level queries only: the device timeline's extent and its
    # bubbles come straight from the trace index — no span objects.
    index = trace.index
    kind: SpanKind | None = SpanKind.EXECUTION
    extent = index.level_extent_ns(Level.GPU_KERNEL, kind)
    if extent is None:
        # Traces captured without launch/execution splitting still have
        # a device timeline worth inspecting.
        kind = None
        extent = index.level_extent_ns(Level.GPU_KERNEL, kind)
    if extent is None:
        return []
    gaps = index.gaps(Level.GPU_KERNEL, kind)
    extent_ns = extent[1] - extent[0]
    if extent_ns <= 0:
        return []
    durations = list(map(sub, map(_gap_end, gaps), map(_gap_start, gaps)))
    idle_ns = sum(durations)
    idle_fraction = idle_ns / extent_ns
    severity = ramp(idle_fraction, IDLE_WARN_FRACTION / 2, IDLE_SATURATION)

    evidence = [
        Evidence(
            kind="gpu_gap",
            summary=(
                f"{len(gaps)} idle gaps totalling {idle_ns / 1e6:.3f} ms "
                f"({100 * idle_fraction:.1f}% of the {extent_ns / 1e6:.3f} ms "
                "device timeline)"
            ),
            measured={
                "idle_ms": idle_ns / 1e6,
                "timeline_ms": extent_ns / 1e6,
                "idle_fraction": idle_fraction,
                "n_gaps": float(len(gaps)),
            },
            threshold={"idle_fraction": IDLE_WARN_FRACTION},
        )
    ]
    for i in nlargest(TOP_GAPS, range(len(gaps)), key=durations.__getitem__):
        gap = gaps[i]
        evidence.append(
            Evidence(
                kind="gpu_gap",
                summary=(
                    f"gap of {gap.duration_ns / 1e3:.1f} us between spans "
                    f"#{gap.before_id} and #{gap.after_id}"
                ),
                span_ids=(gap.before_id, gap.after_id),
                measured={"gap_us": gap.duration_ns / 1e3},
            )
        )
    return [
        Insight(
            rule="gpu-idle-bubbles",
            title=(
                f"GPU idle {100 * idle_fraction:.1f}% of the kernel timeline "
                f"across {len(gaps)} bubbles"
            ),
            severity=severity,
            recommendation=(
                "overlap host work with device execution (async launches, "
                "larger batches) or fuse the launches bounding the biggest "
                "gaps to keep the GPU fed"
            ),
            evidence=tuple(evidence),
        )
    ]


@rule(
    "kernel-hotspot",
    description="single kernel name dominating total GPU kernel latency",
)
def kernel_hotspot(ctx: InsightContext) -> list[Insight]:
    profile = ctx.profile
    kernels = profile.kernel_table
    total = profile.kernel_latency_ms
    if not len(kernels) or total <= 0:
        return []
    ranked = sorted(
        kernels_by_name(kernels).items(), key=lambda kv: -kv[1].latency_ms
    )
    evidence = []
    for name, group in ranked[:3]:
        latency = group.latency_ms
        evidence.append(
            Evidence(
                kind="kernel",
                summary=(
                    f"{name}: {latency:.3f} ms over {group.count} launches "
                    f"({100 * latency / total:.1f}% of kernel time)"
                ),
                kernel_names=(name,),
                layer_indices=group.layer_indices(),
                measured={
                    "latency_ms": latency,
                    "share": latency / total,
                    "count": float(group.count),
                },
                threshold={"share": HOTSPOT_WARN_SHARE},
            )
        )
    top_name, top_group = ranked[0]
    top_share = top_group.latency_ms / total
    return [
        Insight(
            rule="kernel-hotspot",
            title=(
                f"kernel {top_name} concentrates "
                f"{100 * top_share:.1f}% of GPU time"
            ),
            severity=ramp(top_share, HOTSPOT_WARN_SHARE / 2, HOTSPOT_SATURATION),
            recommendation=(
                "optimizing this one kernel (algorithm choice, tile size, "
                "tensor-core variant) bounds the achievable model speedup; "
                "check whether a faster library algorithm exists for the "
                "layers that invoke it"
            ),
            evidence=tuple(evidence),
        )
    ]


def _is_library_kernel(name: str) -> bool:
    lowered = name.lower()
    return any(marker in lowered for marker in LIBRARY_KERNEL_MARKERS)


@rule(
    "library-kernel-mix",
    description="GPU time spent in non-library (custom/Eigen) kernels that "
    "cuDNN or cuBLAS could serve",
)
def library_kernel_mix(ctx: InsightContext) -> list[Insight]:
    profile = ctx.profile
    kernels = profile.kernel_table
    total = profile.kernel_latency_ms
    if not len(kernels) or total <= 0:
        return []
    # Each distinct name is tested once.  A name's group is all of its
    # kernels, so the custom groups are those of the whole table.
    custom_names = {name for name in set(kernels.name)
                    if not _is_library_kernel(name)}
    custom = {name: group for name, group in kernels.by_name().items()
              if name in custom_names}
    custom_ms = sum((latency for latency, name
                     in zip(kernels.latency_ms, kernels.name)
                     if name in custom_names), 0.0)
    share = custom_ms / total
    top = sorted(custom.items(), key=lambda kv: -kv[1].latency_ms)[:3]
    # Aggregate evidence leads so the insight is never evidence-free
    # (an all-library profile has no per-kernel entries to quote).
    evidence = [
        Evidence(
            kind="kernel",
            summary=(
                f"{custom_ms:.3f} ms of {total:.3f} ms kernel time "
                f"({100 * share:.1f}%) outside cuDNN/cuBLAS across "
                f"{len(custom)} kernel names"
            ),
            measured={"custom_ms": custom_ms, "custom_share": share},
            threshold={"custom_share": CUSTOM_WARN_SHARE},
        )
    ]
    evidence.extend(
        Evidence(
            kind="kernel",
            summary=(
                f"{name}: {group.latency_ms:.3f} ms outside cuDNN/cuBLAS "
                f"({100 * group.latency_ms / total:.1f}% of kernel time)"
            ),
            kernel_names=(name,),
            layer_indices=group.layer_indices(),
            measured={
                "latency_ms": group.latency_ms,
                "share": group.latency_ms / total,
            },
            threshold={"custom_share": CUSTOM_WARN_SHARE},
        )
        for name, group in top
    )
    return [
        Insight(
            rule="library-kernel-mix",
            title=(
                f"{100 * share:.1f}% of GPU time in custom/framework kernels "
                f"vs vendor libraries"
            ),
            severity=ramp(share, CUSTOM_WARN_SHARE / 2, CUSTOM_SATURATION),
            recommendation=(
                "element-wise and layout kernels outside cuDNN/cuBLAS are "
                "prime fusion targets; route them through library fused ops "
                "(e.g. cudnnConvolutionBiasActivationForward) or a fusing "
                "compiler"
            ),
            evidence=tuple(evidence),
        )
    ]


@rule(
    "low-occupancy-kernels",
    description="latency-weighted achieved occupancy leaving SMs starved",
)
def low_occupancy_kernels(ctx: InsightContext) -> list[Insight]:
    profile = ctx.profile
    kernels = profile.kernel_table
    if not len(kernels) or profile.kernel_latency_ms <= 0:
        return []
    weighted = profile.achieved_occupancy
    severity = ramp(OCCUPANCY_WARN - weighted, 0.0, OCCUPANCY_WARN - OCCUPANCY_FLOOR)
    latency = kernels.latency_ms
    worst = map(kernels.row, nlargest(
        TOP_KERNELS,
        [i for i, occupancy in enumerate(kernels.achieved_occupancy)
         if occupancy < LOW_OCCUPANCY_KERNEL],
        key=latency.__getitem__,
    ))
    evidence = [
        Evidence(
            kind="kernel",
            summary=(
                f"model-wide latency-weighted achieved occupancy "
                f"{100 * weighted:.1f}%"
            ),
            measured={"achieved_occupancy": weighted},
            threshold={"achieved_occupancy": OCCUPANCY_WARN},
        )
    ]
    for k in worst:
        evidence.append(
            Evidence(
                kind="kernel",
                summary=(
                    f"{k.name} (layer {k.layer_index}): occupancy "
                    f"{100 * k.achieved_occupancy:.1f}% over {k.latency_ms:.3f} ms"
                ),
                kernel_names=(k.name,),
                layer_indices=(k.layer_index,),
                measured={
                    "achieved_occupancy": k.achieved_occupancy,
                    "latency_ms": k.latency_ms,
                },
                threshold={"achieved_occupancy": LOW_OCCUPANCY_KERNEL},
            )
        )
    return [
        Insight(
            rule="low-occupancy-kernels",
            title=(
                f"latency-weighted achieved occupancy {100 * weighted:.1f}%"
            ),
            severity=severity,
            recommendation=(
                "increase parallel work per launch (bigger batch, wider "
                "tiles) or adjust launch geometry for the lowest-occupancy "
                "kernels below"
            ),
            evidence=tuple(evidence),
        )
    ]

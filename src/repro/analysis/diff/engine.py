"""The diff engine: align two profiles, tabulate what changed, classify.

:func:`diff_profiles` is the subsystem's entry point.  It aligns the two
layer sequences (:mod:`repro.analysis.diff.align`), then fills one
:class:`~repro.analysis.diff.model.DiffTable`: a row per aligned layer
pair and a row per (layer pair, kernel name) group, with a baseline and
a candidate column per compared metric.  Group totals are summed in the
order :func:`~repro.core.pipeline.kernels_by_name` sums them.  It then
adds model-level rollups and classifies ranked
:class:`~repro.analysis.diff.model.DiffFinding`\\ s using the insight
engine's severity conventions (:func:`repro.insights.model.ramp`, the
info/warning/critical bands) and :class:`~repro.insights.model.Evidence`
records that resolve against both source profiles.

A self-diff is clean by construction: ``diff_profiles(p, p)`` measures
zero change everywhere, so every emitted finding scores severity 0 —
findings are *observational* (like insight rules) and ``--min-severity``
/ severity bands do the filtering.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

from repro.analysis.diff.align import align_layers
from repro.analysis.diff.model import (
    KERNEL_LABELS,
    KERNEL_METRICS,
    LAYER_LABELS,
    LAYER_METRICS,
    Delta,
    DiffFinding,
    DiffRows,
    DiffTable,
    LayerDelta,
    ProfileDiff,
)
from repro.core.pipeline import (
    LayerProfile,
    ModelProfile,
    kernels_by_name,
)
from repro.insights.model import Evidence, ramp

#: Fractional model-latency change at which a regression/improvement
#: starts to matter / saturates the severity ramp.
LATENCY_WARN_FRACTION = 0.05
LATENCY_SATURATION = 0.50

#: Candidate kernel-time share at which a kernel counts as a hotspot, and
#: the share *gain* that saturates the new-hotspot ramp.
NEW_HOTSPOT_SHARE = 0.10
NEW_HOTSPOT_SATURATION = 0.40
#: A hotspot is "new" when its candidate share at least doubled.
NEW_HOTSPOT_GROWTH = 2.0

#: Total-variation distance between kernel-time distributions at which
#: the mix shift warns / saturates.
MIX_WARN_DISTANCE = 0.10
MIX_SATURATION = 0.60

#: Layers / kernels quoted as evidence per finding.
TOP_CONTRIBUTORS = 3
#: Independent new-hotspot findings emitted at most.
MAX_HOTSPOT_FINDINGS = 3

#: The metrics of a side a layer or kernel group is missing from.
_NO_LAYER = (0.0,) * len(LAYER_METRICS)
_NO_GROUP = (0, 0.0, 0.0, (), 0)


def _identity(profile: ModelProfile) -> dict[str, object]:
    return {
        "model_name": profile.model_name,
        "system": profile.system,
        "framework": profile.framework,
        "batch": profile.batch,
        "n_runs": profile.n_runs,
        "model_latency_ms": profile.model_latency_ms,
    }


def _layer_values(layer: LayerProfile | None) -> tuple:
    """A layer's LAYER_METRICS."""
    if layer is None:
        return _NO_LAYER
    totals = layer.totals
    return (float(layer.latency_ms), float(totals.flops),
            float(totals.dram_bytes), float(totals.achieved_occupancy),
            float(layer.alloc_bytes))


def _groups(layer: LayerProfile | None) -> dict[str, list]:
    """The same-named kernel groups of a layer, in first-seen name order
    (:meth:`~repro.core.pipeline.KernelTable.by_name` of its rows): each
    group's launch count, latency and flops sums, its kernels' DRAM
    bytes, and its occupancy weight sum."""
    if layer is None:
        return {}
    table = layer.kernel_table
    reads, writes = table.dram_read_bytes, table.dram_write_bytes
    return {
        name: [group.count, group.latency_ms, group.flops,
               [reads[i] + writes[i] for i in group.rows],
               group.occupancy_weight]
        for name, group in table.by_name(layer.kernel_rows).items()
    }


def _group_columns(groups: list) -> list[Sequence]:
    """The KERNEL_METRICS columns of :func:`_groups` entries."""
    count, latency, flops, dram_bytes, weight = _transpose(groups, 5)
    return [
        count, latency, flops,
        # Each kernel's reads + writes, summed: not the summed reads plus
        # the summed writes, which can differ in the last bit.
        list(map(sum, dram_bytes, repeat(0.0))),
        [w / t if t else 0.0 for w, t in zip(weight, latency)],
    ]


def _transpose(rows: list, width: int) -> list[Sequence]:
    return list(zip(*rows)) or [()] * width


def _table(
    pairs: list[tuple[LayerProfile | None, LayerProfile | None, str | None]],
) -> DiffTable:
    """The table of aligned ``(baseline, candidate, via)`` layer pairs."""
    labels: list[tuple] = []
    baseline_rows: list[tuple] = []
    candidate_rows: list[tuple] = []
    kernel_labels: list[tuple[str, str]] = []
    baseline_groups: list = []
    candidate_groups: list = []
    kernel_start = [0]
    for baseline, candidate, via in pairs:
        if baseline is None:
            reference, status = candidate, "added"
        else:
            reference = baseline if candidate is None else candidate
            status = "removed" if candidate is None else "matched"
        labels.append((
            reference.name, reference.layer_type, status, via,
            None if baseline is None else baseline.index,
            None if candidate is None else candidate.index,
        ))
        baseline_rows.append(_layer_values(baseline))
        candidate_rows.append(_layer_values(candidate))
        base = _groups(baseline)
        cand = _groups(candidate)
        for name, sums in base.items():
            other = cand.get(name)
            kernel_labels.append(
                (name, "removed" if other is None else "matched"))
            baseline_groups.append(sums)
            candidate_groups.append(_NO_GROUP if other is None else other)
        for name, sums in cand.items():
            if name not in base:
                kernel_labels.append((name, "added"))
                baseline_groups.append(_NO_GROUP)
                candidate_groups.append(sums)
        kernel_start.append(len(kernel_labels))
    return DiffTable(
        DiffRows(
            dict(zip(LAYER_LABELS, _transpose(labels, len(LAYER_LABELS)))),
            dict(zip(LAYER_METRICS, zip(
                _transpose(baseline_rows, len(LAYER_METRICS)),
                _transpose(candidate_rows, len(LAYER_METRICS)),
            ))),
        ),
        DiffRows(
            dict(zip(KERNEL_LABELS, _transpose(kernel_labels, 2))),
            dict(zip(KERNEL_METRICS, zip(
                _group_columns(baseline_groups),
                _group_columns(candidate_groups),
            ))),
        ),
        kernel_start,
    )


def _totals(baseline: ModelProfile, candidate: ModelProfile) -> dict[str, Delta]:
    def metric(fn) -> Delta:
        return Delta(float(fn(baseline)), float(fn(candidate)))

    return {
        "model_latency_ms": metric(lambda p: p.model_latency_ms),
        "kernel_latency_ms": metric(lambda p: p.kernel_latency_ms),
        "throughput": metric(lambda p: p.throughput),
        "flops": metric(lambda p: p.flops),
        "dram_bytes": metric(lambda p: p.dram_bytes),
        "achieved_occupancy": metric(lambda p: p.achieved_occupancy),
        "alloc_bytes": metric(
            lambda p: sum(layer.alloc_bytes for layer in p.layers)
        ),
        "n_kernels": metric(lambda p: len(p.kernel_table)),
    }


# -- finding classification ---------------------------------------------------


def _model_evidence(profile: ModelProfile, threshold: dict) -> Evidence:
    throughput = profile.throughput
    return Evidence(
        kind="model",
        summary=(
            f"{profile.model_name} on {profile.system} "
            f"({profile.framework}, batch {profile.batch}): "
            f"{profile.model_latency_ms:.3f} ms, "
            f"{throughput:.1f} inputs/s"
        ),
        measured={
            "model_latency_ms": profile.model_latency_ms,
            "throughput": throughput,
        },
        threshold=threshold,
    )


def _layer_side_evidence(
    layer: LayerDelta, side: str
) -> Evidence | None:
    """Per-side layer evidence; None when the layer is absent on ``side``."""
    index = (
        layer.baseline_index if side == "baseline" else layer.candidate_index
    )
    if index is None:
        return None
    value = getattr(layer.latency_ms, side)
    return Evidence(
        kind="layer",
        summary=(
            f"layer {layer.name} ({layer.layer_type}): {value:.3f} ms "
            f"[{layer.latency_ms.format(' ms')}]"
        ),
        layer_indices=(index,),
        measured={
            "latency_ms": value,
            "latency_delta_ms": layer.latency_ms.delta,
        },
    )


def _latency_finding(
    baseline: ModelProfile,
    candidate: ModelProfile,
    table: DiffTable,
    totals: dict[str, Delta],
) -> DiffFinding:
    latency = totals["model_latency_ms"]
    regressed = latency.delta > 0
    fraction = (
        max(0.0, latency.ratio - 1.0)
        if regressed
        else max(0.0, 1.0 - latency.ratio)
    )
    severity = ramp(
        min(fraction, LATENCY_SATURATION),
        LATENCY_WARN_FRACTION / 2,
        LATENCY_SATURATION,
    )
    threshold = {"latency_change_fraction": LATENCY_WARN_FRACTION}
    base_ev = [_model_evidence(baseline, threshold)]
    cand_ev = [_model_evidence(candidate, threshold)]
    # The layers that moved the needle, in the finding's direction.
    sign = 1.0 if regressed else -1.0
    deltas = table.layers.delta("latency_ms")
    contributors = sorted(
        (row for row, delta in enumerate(deltas) if sign * delta > 0),
        key=lambda row: -sign * deltas[row],
    )[:TOP_CONTRIBUTORS]
    for layer in (LayerDelta(table, row) for row in contributors):
        for side, bucket in (("baseline", base_ev), ("candidate", cand_ev)):
            ev = _layer_side_evidence(layer, side)
            if ev is not None:
                bucket.append(ev)
    if regressed:
        kind = "regression"
        title = (
            f"candidate is {100 * fraction:.1f}% slower "
            f"({latency.format(' ms')})"
        )
        recommendation = (
            "the layers below contribute most of the slowdown; compare "
            "their kernel deltas to see whether the library picked a "
            "different algorithm or the layer itself grew"
        )
    else:
        kind = "improvement"
        title = (
            f"candidate is {100 * fraction:.1f}% faster "
            f"({latency.format(' ms')})"
        )
        recommendation = (
            "improvement — the layers below gained the most; their kernel "
            "deltas show where the time went"
        )
    return DiffFinding(
        kind=kind,
        title=title,
        severity=severity,
        recommendation=recommendation,
        baseline_evidence=tuple(base_ev),
        candidate_evidence=tuple(cand_ev),
    )


class _KernelView:
    """One side's kernel-time shares by name, computed once per diff."""

    def __init__(self, profile: ModelProfile) -> None:
        kernels = profile.kernel_table
        latency = kernels.latency_ms
        # Flat over the kernels, and each kernel's fraction added up: the
        # model's layer-by-layer total, or a group's latency divided by
        # the total, can differ in the last bit.
        self.total_ms = total = sum(latency)
        self.groups = kernels_by_name(kernels)
        self.shares: dict[str, float] = {
            name: sum(latency[i] / total for i in group.rows)
            for name, group in self.groups.items()
        } if total > 0 else {}


def _kernel_side_evidence(
    view: _KernelView, name: str, share: float, threshold: dict
) -> Evidence:
    if name in view.groups:
        return Evidence(
            kind="kernel",
            summary=(
                f"{name}: {100 * share:.1f}% of GPU kernel time"
            ),
            kernel_names=(name,),
            layer_indices=view.groups[name].layer_indices(),
            measured={"share": share},
            threshold=threshold,
        )
    return Evidence(
        kind="kernel",
        summary=f"{name}: not launched in this profile",
        measured={"share": 0.0},
        threshold=threshold,
    )


def _hotspot_findings(
    base_view: _KernelView, cand_view: _KernelView
) -> list[DiffFinding]:
    base_shares = base_view.shares
    cand_shares = cand_view.shares
    threshold = {
        "share": NEW_HOTSPOT_SHARE,
        "growth": NEW_HOTSPOT_GROWTH,
    }
    emerged = sorted(
        (
            (name, share)
            for name, share in cand_shares.items()
            if share >= NEW_HOTSPOT_SHARE
            and share >= NEW_HOTSPOT_GROWTH * base_shares.get(name, 0.0)
        ),
        key=lambda item: -(item[1] - base_shares.get(item[0], 0.0)),
    )[:MAX_HOTSPOT_FINDINGS]
    findings = []
    for name, share in emerged:
        base_share = base_shares.get(name, 0.0)
        findings.append(
            DiffFinding(
                kind="new-hotspot",
                title=(
                    f"kernel {name} emerged as a hotspot: "
                    f"{100 * base_share:.1f}% -> {100 * share:.1f}% of "
                    "GPU time"
                ),
                severity=ramp(
                    share - base_share,
                    NEW_HOTSPOT_SHARE / 2,
                    NEW_HOTSPOT_SATURATION,
                ),
                recommendation=(
                    "this kernel barely registered in the baseline; check "
                    "which layers now launch it (library algorithm switch, "
                    "shape change) before optimizing anything else"
                ),
                baseline_evidence=(
                    _kernel_side_evidence(
                        base_view, name, base_share, threshold
                    ),
                ),
                candidate_evidence=(
                    _kernel_side_evidence(cand_view, name, share, threshold),
                ),
            )
        )
    return findings


def _mix_shift_finding(
    base_view: _KernelView, cand_view: _KernelView
) -> DiffFinding | None:
    base_shares = base_view.shares
    cand_shares = cand_view.shares
    if not base_shares and not cand_shares:
        return None
    # First-seen order (baseline, then candidate-only), not a set's:
    # the sum and the movers' ties must not depend on string hashing.
    names = [*base_shares,
             *(n for n in cand_shares if n not in base_shares)]
    distance = 0.5 * sum(
        abs(base_shares.get(n, 0.0) - cand_shares.get(n, 0.0)) for n in names
    )
    threshold = {"mix_distance": MIX_WARN_DISTANCE}
    movers = sorted(
        names,
        key=lambda n: -abs(base_shares.get(n, 0.0) - cand_shares.get(n, 0.0)),
    )[:TOP_CONTRIBUTORS]
    base_ev = [
        Evidence(
            kind="kernel_mix",
            summary=(
                f"{len(base_shares)} kernel names over "
                f"{base_view.total_ms:.3f} ms of GPU time"
            ),
            measured={"mix_distance": distance},
            threshold=threshold,
        )
    ]
    cand_ev = [
        Evidence(
            kind="kernel_mix",
            summary=(
                f"{len(cand_shares)} kernel names over "
                f"{cand_view.total_ms:.3f} ms of GPU time"
            ),
            measured={"mix_distance": distance},
            threshold=threshold,
        )
    ]
    for name in movers:
        b, c = base_shares.get(name, 0.0), cand_shares.get(name, 0.0)
        if name in base_shares:
            base_ev.append(
                _kernel_side_evidence(base_view, name, b, threshold)
            )
        if name in cand_shares:
            cand_ev.append(
                _kernel_side_evidence(cand_view, name, c, threshold)
            )
    return DiffFinding(
        kind="kernel-mix-shift",
        title=(
            f"kernel-time distribution moved {100 * distance:.1f}% "
            "(total-variation distance) between the two profiles"
        ),
        severity=ramp(distance, MIX_WARN_DISTANCE / 2, MIX_SATURATION),
        recommendation=(
            "a large mix shift means the two configurations run different "
            "code, not just different speeds — attribute the diff per "
            "kernel before crediting the hardware or framework"
        ),
        baseline_evidence=tuple(base_ev),
        candidate_evidence=tuple(cand_ev),
    )


def classify(
    baseline: ModelProfile,
    candidate: ModelProfile,
    table: DiffTable,
    totals: dict[str, Delta],
) -> list[DiffFinding]:
    """Ranked findings for an aligned profile pair."""
    base_view = _KernelView(baseline)
    cand_view = _KernelView(candidate)
    findings = [_latency_finding(baseline, candidate, table, totals)]
    findings.extend(_hotspot_findings(base_view, cand_view))
    mix = _mix_shift_finding(base_view, cand_view)
    if mix is not None:
        findings.append(mix)
    findings.sort(key=lambda f: -f.severity)
    return findings


def diff_profiles(
    baseline: ModelProfile, candidate: ModelProfile
) -> ProfileDiff:
    """Align ``baseline`` and ``candidate`` and explain what changed."""
    alignment = align_layers(baseline.layers, candidate.layers)
    table = _table([
        *((m.baseline, m.candidate, m.via) for m in alignment.matched),
        *((layer, None, None) for layer in alignment.removed),
        *((None, layer, None) for layer in alignment.added),
    ])
    totals = _totals(baseline, candidate)
    return ProfileDiff(
        baseline=_identity(baseline),
        candidate=_identity(candidate),
        totals=totals,
        table=table,
        findings=classify(baseline, candidate, table, totals),
    )

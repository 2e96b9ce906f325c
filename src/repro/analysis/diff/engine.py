"""The diff engine: align two profiles, tabulate what changed, classify.

:func:`diff_profiles` is the subsystem's entry point.  It aligns the
slots of the two layer tables (:mod:`repro.analysis.diff.align`), then
fills one :class:`~repro.analysis.diff.model.DiffTable` from the layer
and kernel columns, building no layer object: a row per aligned layer
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

from typing import Sequence

from repro.analysis.diff.align import Pair, align_layers
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
    KernelTable,
    LayerTable,
    ModelProfile,
    dram_traffic,
    kernels_by_name,
    weighted_occupancy,
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

#: The KERNEL_METRICS of the side a kernel group is missing from.
_NO_GROUP = (0, 0.0, 0.0, 0.0, 0.0)


def _identity(profile: ModelProfile) -> dict[str, object]:
    return {
        "model_name": profile.model_name,
        "system": profile.system,
        "framework": profile.framework,
        "batch": profile.batch,
        "n_runs": profile.n_runs,
        "model_latency_ms": profile.model_latency_ms,
    }


def _layer_metrics(table: LayerTable) -> list[list[float]]:
    """Each slot's LAYER_METRICS, read from the layer columns and kernel
    totals, then a zero for the side a layer is missing from (slot -1)."""
    totals = table.totals
    columns = (
        table.latency_ms,
        totals.flops,
        totals.dram_bytes,
        list(map(weighted_occupancy, totals.occupancy_weight,
                 totals.kernel_latency_ms)),
        table.alloc_bytes,
    )
    return [[*map(float, column), 0.0] for column in columns]


def _groups(kernels: KernelTable, slot: int | None) -> dict[str, tuple]:
    """The KERNEL_METRICS of the same-named kernels of slot ``slot``, in
    first-seen name order: one :meth:`~repro.core.pipeline.KernelTable.fold`
    per group."""
    if slot is None:
        return {}
    names, reads, writes = (kernels.name, kernels.dram_read_bytes,
                            kernels.dram_write_bytes)
    rows_by_name: dict[str, list[int]] = {}
    for i in range(kernels.starts[slot], kernels.starts[slot + 1]):
        rows_by_name.setdefault(names[i], []).append(i)
    groups = {}
    for name, rows in rows_by_name.items():
        latency, flops, _, _, weight = kernels.fold(rows)
        # Each kernel's reads + writes, summed: not the summed reads plus
        # the summed writes, which can differ in the last bit.
        dram = sum([dram_traffic(reads[i], writes[i]) for i in rows], 0.0)
        groups[name] = (len(rows), latency, flops, dram,
                        weighted_occupancy(weight, latency))
    return groups


def _transpose(rows: list, width: int) -> list[Sequence]:
    return list(zip(*rows)) or [()] * width


def _table(baseline: LayerTable, candidate: LayerTable,
           pairs: list[Pair]) -> DiffTable:
    """The table of aligned ``(baseline, candidate, via)`` slot pairs."""
    labels: list[tuple] = []
    kernel_labels: list[tuple[str, str]] = []
    baseline_groups: list[tuple] = []
    candidate_groups: list[tuple] = []
    kernel_start = [0]
    for b, c, via in pairs:
        reference, slot = (baseline, b) if c is None else (candidate, c)
        labels.append((
            reference.name[slot], reference.layer_type[slot],
            "added" if b is None else "removed" if c is None else "matched",
            via,
            None if b is None else baseline.index[b],
            None if c is None else candidate.index[c],
        ))
        base = _groups(baseline.kernels, b)
        cand = _groups(candidate.kernels, c)
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
    base_slots = [-1 if b is None else b for b, _, _ in pairs]
    cand_slots = [-1 if c is None else c for _, c, _ in pairs]
    return DiffTable(
        DiffRows(
            dict(zip(LAYER_LABELS, _transpose(labels, len(LAYER_LABELS)))),
            {metric: (list(map(base.__getitem__, base_slots)),
                      list(map(cand.__getitem__, cand_slots)))
             for metric, base, cand in zip(LAYER_METRICS,
                                           _layer_metrics(baseline),
                                           _layer_metrics(candidate))},
        ),
        DiffRows(
            dict(zip(KERNEL_LABELS, _transpose(kernel_labels, 2))),
            dict(zip(KERNEL_METRICS, zip(
                _transpose(baseline_groups, len(KERNEL_METRICS)),
                _transpose(candidate_groups, len(KERNEL_METRICS)),
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
        "alloc_bytes": metric(lambda p: sum(p.layer_table.alloc_bytes)),
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
    layers, other = baseline.layer_table, candidate.layer_table
    table = _table(layers, other, align_layers(layers, other))
    totals = _totals(baseline, candidate)
    return ProfileDiff(
        baseline=_identity(baseline),
        candidate=_identity(candidate),
        totals=totals,
        table=table,
        findings=classify(baseline, candidate, table, totals),
    )

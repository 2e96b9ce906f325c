"""The diff engine and ``ProfileDiff`` writer that the column engine replaced.

``repro.analysis.diff`` aligns the slots of two layer tables, computes a
diff as one table from the layer and kernel columns and writes its JSON
from templates.  This module keeps what it replaced, unchanged:

* the engine and writer: one frozen ``Delta`` per compared number,
  ``KernelDelta`` and ``LayerDelta`` objects per row, and ``to_dict``
  trees that ``json.dumps`` serializes;
* the object alignment (:func:`align_layers` over ``LayerProfile``
  lists, into :class:`LayerMatch` / :class:`LayerAlignment`);
* the table built from layer objects and one kernel aggregate per group
  (:func:`object_table`).

``test_diff_oracle.py`` asserts that the engines agree byte for byte,
``test_diff_align.py`` fuzzes the slot alignment against the object one,
and ``benchmarks/bench_diff_engine.py`` times the new writer and table
against these.  Imported by the tests as a plain ``diff_oracle`` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from difflib import SequenceMatcher
from itertools import repeat
from typing import Any, Sequence

from repro.analysis.diff.model import (
    KERNEL_LABELS,
    KERNEL_METRICS,
    LAYER_LABELS,
    LAYER_METRICS,
    ROLLUP_METRICS,
    DiffFinding,
    DiffRows,
    DiffTable,
    _json_number,
)
from repro.core.pipeline import (
    KernelAggregate,
    KernelTable,
    LayerProfile,
    ModelProfile,
    kernels_by_name,
)
from repro.insights.model import Evidence, ramp


@dataclass(frozen=True)
class Delta:
    """One scalar measured on both sides of a diff."""

    baseline: float
    candidate: float

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    @property
    def ratio(self) -> float:
        """candidate / baseline; 1.0 when both are zero, inf when only
        the baseline is."""
        if self.baseline == 0:
            return 1.0 if self.candidate == 0 else math.inf
        return self.candidate / self.baseline

    @property
    def pct_change(self) -> float:
        """Relative change in percent (+ = candidate larger)."""
        ratio = self.ratio
        return math.inf if math.isinf(ratio) else 100.0 * (ratio - 1.0)

    def to_dict(self) -> dict[str, float | None]:
        return {
            "baseline": self.baseline,
            "candidate": self.candidate,
            "delta": self.delta,
            "ratio": _json_number(self.ratio),
        }

    def format(self, unit: str = "", spec: str = ".3f") -> str:
        pct = self.pct_change
        arrow = "=" if self.delta == 0 else ("+" if self.delta > 0 else "-")
        pct_s = "inf%" if math.isinf(pct) else f"{abs(pct):.1f}%"
        return (
            f"{self.baseline:{spec}}{unit} -> {self.candidate:{spec}}{unit} "
            f"({arrow}{pct_s})"
        )


@dataclass(frozen=True)
class KernelDelta:
    """All same-named kernels of one aligned layer pair, side by side.

    Kernels are matched per-layer by name; counts can differ (algorithm
    switches change launch counts), so each side is the *aggregate* over
    its same-named group.  ``status`` is ``matched`` / ``added`` (only in
    the candidate) / ``removed`` (only in the baseline); the missing side
    of an added/removed kernel reads as zero.
    """

    name: str
    status: str
    count: Delta
    latency_ms: Delta
    flops: Delta
    dram_bytes: Delta
    occupancy: Delta  #: latency-weighted achieved occupancy

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "count": self.count.to_dict(),
            "latency_ms": self.latency_ms.to_dict(),
            "flops": self.flops.to_dict(),
            "dram_bytes": self.dram_bytes.to_dict(),
            "occupancy": self.occupancy.to_dict(),
        }


@dataclass(frozen=True)
class LayerDelta:
    """One aligned layer (or a layer present on only one side).

    ``status`` is ``matched`` / ``added`` / ``removed``; for matched
    layers ``via`` records the alignment rule that paired them
    (``name`` / ``type`` / ``index``).  Indices are per-side
    (``baseline_index`` resolves against the baseline profile,
    ``candidate_index`` against the candidate); the absent side of an
    added/removed layer is ``None`` and its metrics read as zero.
    """

    name: str
    layer_type: str
    status: str
    via: str | None
    baseline_index: int | None
    candidate_index: int | None
    latency_ms: Delta
    flops: Delta
    dram_bytes: Delta
    occupancy: Delta
    alloc_bytes: Delta
    kernels: tuple[KernelDelta, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "layer_type": self.layer_type,
            "status": self.status,
            "via": self.via,
            "baseline_index": self.baseline_index,
            "candidate_index": self.candidate_index,
            "latency_ms": self.latency_ms.to_dict(),
            "flops": self.flops.to_dict(),
            "dram_bytes": self.dram_bytes.to_dict(),
            "occupancy": self.occupancy.to_dict(),
            "alloc_bytes": self.alloc_bytes.to_dict(),
            "kernels": [k.to_dict() for k in self.kernels],
        }


@dataclass
class ProfileDiff:
    """The aligned, classified difference between two profiles."""

    baseline: dict[str, Any]  #: identity of side A (model/system/...)
    candidate: dict[str, Any]  #: identity of side B
    totals: dict[str, Delta]  #: model-level rollups (see ROLLUP_METRICS)
    layers: list[LayerDelta] = field(default_factory=list)
    findings: list[DiffFinding] = field(default_factory=list)

    # -- headline numbers ---------------------------------------------------
    @property
    def latency(self) -> Delta:
        return self.totals["model_latency_ms"]

    @property
    def speedup(self) -> float:
        """baseline latency / candidate latency (> 1 = candidate faster)."""
        ratio = self.latency.ratio
        if ratio == 0:
            return math.inf
        return 0.0 if math.isinf(ratio) else 1.0 / ratio

    @property
    def regression_fraction(self) -> float:
        """Fractional model-latency slowdown of the candidate (>= 0).

        This is the number the CLI's ``--max-regression`` gate checks:
        0.25 means the candidate is 25% slower than the baseline.
        """
        ratio = self.latency.ratio
        return math.inf if math.isinf(ratio) else max(0.0, ratio - 1.0)

    # -- views ---------------------------------------------------------------
    def findings_above(self, min_severity: float) -> list[DiffFinding]:
        return [f for f in self.findings if f.severity >= min_severity]

    def layers_with_status(self, status: str) -> list[LayerDelta]:
        return [l for l in self.layers if l.status == status]

    def to_dict(self, *, min_severity: float = 0.0) -> dict[str, Any]:
        return {
            "baseline": dict(self.baseline),
            "candidate": dict(self.candidate),
            "speedup": _json_number(self.speedup),
            "regression_fraction": _json_number(self.regression_fraction),
            "totals": {k: d.to_dict() for k, d in self.totals.items()},
            "layers": [l.to_dict() for l in self.layers],
            "findings": [
                f.to_dict() for f in self.findings_above(min_severity)
            ],
        }

    def render(self, *, min_severity: float = 0.0, max_layers: int = 10) -> str:
        """Narrated text comparison (the CLI's default output)."""

        def _ident(side: dict[str, Any]) -> str:
            return (
                f"{side.get('model_name', '?')} | {side.get('framework', '?')}"
                f" | {side.get('system', '?')} | batch {side.get('batch', '?')}"
            )

        header = (
            f"XSP diff: {_ident(self.baseline)}  vs  {_ident(self.candidate)}"
        )
        lines = [header, "=" * len(header)]
        verb = "faster" if self.speedup >= 1.0 else "slower"
        factor = (
            self.speedup
            if self.speedup >= 1.0
            else (1.0 / self.speedup if self.speedup > 0 else math.inf)
        )
        lines.append(
            f"candidate is {factor:.2f}x {verb} "
            f"({self.latency.format(' ms')})"
        )
        lines.append("")
        lines.append("model-level rollups:")
        for metric, unit, spec in ROLLUP_METRICS:
            delta = self.totals.get(metric)
            if delta is not None:
                lines.append(f"  {metric:<20} {delta.format(unit, spec)}")
        added = self.layers_with_status("added")
        removed = self.layers_with_status("removed")
        if added or removed:
            lines.append(
                f"layer alignment: {len(self.layers_with_status('matched'))} "
                f"matched, {len(added)} only in candidate, "
                f"{len(removed)} only in baseline"
            )
        movers = sorted(
            (l for l in self.layers if l.latency_ms.delta != 0),
            key=lambda l: -abs(l.latency_ms.delta),
        )[:max_layers]
        if movers:
            lines.append("")
            lines.append(f"top layer movers (of {len(self.layers)} layers):")
            for layer in movers:
                lines.append(
                    f"  [{layer.status:<7}] {layer.name:<32} "
                    f"{layer.latency_ms.format(' ms')}"
                )
        shown = self.findings_above(min_severity)
        lines.append("")
        if shown:
            lines.append("findings:")
            lines.extend(f.render() for f in shown)
        else:
            lines.append("no findings at or above the requested severity")
        hidden = len(self.findings) - len(shown)
        if hidden:
            lines.append(f"... ({hidden} below severity {min_severity:.2f})")
        return "\n".join(lines)


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

#: The missing side of an added or removed kernel.
_EMPTY = KernelTable.from_kernels([()]).aggregate(())


# -- the object alignment -----------------------------------------------------


@dataclass(frozen=True)
class LayerMatch:
    """One baseline layer paired with one candidate layer."""

    baseline: LayerProfile
    candidate: LayerProfile
    via: str  #: "name" | "type" | "index"


@dataclass
class LayerAlignment:
    """The full pairing of two layer sequences."""

    matched: list[LayerMatch]
    removed: list[LayerProfile]  #: baseline-only
    added: list[LayerProfile]  #: candidate-only

    @property
    def n_layers(self) -> int:
        return len(self.matched) + len(self.removed) + len(self.added)


def _signature(layer: LayerProfile) -> tuple[str, str]:
    return (layer.name, layer.layer_type)


def _pair_replaced(
    base: list[LayerProfile],
    cand: list[LayerProfile],
    alignment: LayerAlignment,
) -> None:
    """Pair a replaced run positionally via the name/type/index ladder."""
    for offset in range(max(len(base), len(cand))):
        if offset >= len(base):
            alignment.added.append(cand[offset])
            continue
        if offset >= len(cand):
            alignment.removed.append(base[offset])
            continue
        b, c = base[offset], cand[offset]
        if b.name == c.name:
            via = "name"
        elif b.layer_type == c.layer_type:
            via = "type"
        elif b.index == c.index:
            via = "index"
        else:
            alignment.removed.append(b)
            alignment.added.append(c)
            continue
        alignment.matched.append(LayerMatch(b, c, via))


def align_layers(
    baseline: list[LayerProfile], candidate: list[LayerProfile]
) -> LayerAlignment:
    """Pair the two layer sequences, tolerating inserts and renames."""
    alignment = LayerAlignment(matched=[], removed=[], added=[])
    matcher = SequenceMatcher(
        a=[_signature(l) for l in baseline],
        b=[_signature(l) for l in candidate],
        autojunk=False,
    )
    for op, b_lo, b_hi, c_lo, c_hi in matcher.get_opcodes():
        if op == "equal":
            alignment.matched.extend(
                LayerMatch(b, c, "name")
                for b, c in zip(baseline[b_lo:b_hi], candidate[c_lo:c_hi])
            )
        elif op == "replace":
            _pair_replaced(
                baseline[b_lo:b_hi], candidate[c_lo:c_hi], alignment
            )
        elif op == "delete":
            alignment.removed.extend(baseline[b_lo:b_hi])
        else:  # insert
            alignment.added.extend(candidate[c_lo:c_hi])
    return alignment


# -- the table from layer objects ---------------------------------------------

#: The metrics of a side a layer or kernel group is missing from.
_NO_LAYER = (0.0,) * len(LAYER_METRICS)
_NO_GROUP = (0, 0.0, 0.0, (), 0)


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


def object_table(baseline: ModelProfile, candidate: ModelProfile) -> DiffTable:
    """The diff table of two profiles, from their aligned layer objects."""
    alignment = align_layers(baseline.layers, candidate.layers)
    return _table([
        *((m.baseline, m.candidate, m.via) for m in alignment.matched),
        *((layer, None, None) for layer in alignment.removed),
        *((None, layer, None) for layer in alignment.added),
    ])


def _identity(profile: ModelProfile) -> dict[str, object]:
    return {
        "model_name": profile.model_name,
        "system": profile.system,
        "framework": profile.framework,
        "batch": profile.batch,
        "n_runs": profile.n_runs,
        "model_latency_ms": profile.model_latency_ms,
    }


def _kernel_deltas(
    baseline: list, candidate: list
) -> tuple[KernelDelta, ...]:
    base = kernels_by_name(baseline)
    cand = kernels_by_name(candidate)
    deltas: list[KernelDelta] = []
    for name, b in base.items():
        c = cand.get(name, _EMPTY)
        deltas.append(_kernel_delta(name, b, c, "matched" if name in cand else "removed"))
    for name, c in cand.items():
        if name not in base:
            deltas.append(_kernel_delta(name, _EMPTY, c, "added"))
    return tuple(deltas)


def _dram_bytes(group: KernelAggregate) -> float:
    # Each kernel's reads + writes, summed: not the group's summed reads
    # plus summed writes, which can differ in the last bit.
    return sum((k.dram_bytes for k in group.kernels), 0.0)


def _kernel_delta(
    name: str, b: KernelAggregate, c: KernelAggregate, status: str
) -> KernelDelta:
    return KernelDelta(
        name=name,
        status=status,
        count=Delta(b.count, c.count),
        latency_ms=Delta(b.latency_ms, c.latency_ms),
        flops=Delta(b.flops, c.flops),
        dram_bytes=Delta(_dram_bytes(b), _dram_bytes(c)),
        occupancy=Delta(b.achieved_occupancy, c.achieved_occupancy),
    )


def _layer_delta(
    baseline: LayerProfile | None,
    candidate: LayerProfile | None,
    *,
    via: str | None = None,
) -> LayerDelta:
    reference = candidate if candidate is not None else baseline
    assert reference is not None

    def metric(attr: str) -> Delta:
        return Delta(
            float(getattr(baseline, attr)) if baseline is not None else 0.0,
            float(getattr(candidate, attr)) if candidate is not None else 0.0,
        )

    if baseline is not None and candidate is not None:
        status = "matched"
    elif candidate is not None:
        status = "added"
    else:
        status = "removed"
    return LayerDelta(
        name=reference.name,
        layer_type=reference.layer_type,
        status=status,
        via=via,
        baseline_index=baseline.index if baseline is not None else None,
        candidate_index=candidate.index if candidate is not None else None,
        latency_ms=metric("latency_ms"),
        flops=metric("flops"),
        dram_bytes=metric("dram_bytes"),
        occupancy=metric("achieved_occupancy"),
        alloc_bytes=metric("alloc_bytes"),
        kernels=_kernel_deltas(
            baseline.kernels if baseline is not None else [],
            candidate.kernels if candidate is not None else [],
        ),
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
        "n_kernels": metric(lambda p: len(p.kernels)),
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
    layers: list[LayerDelta],
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
    contributors = sorted(
        (l for l in layers if sign * l.latency_ms.delta > 0),
        key=lambda l: -sign * l.latency_ms.delta,
    )[:TOP_CONTRIBUTORS]
    for layer in contributors:
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
        kernels = profile.kernels
        # Flat over the kernels, and each kernel's fraction added up: the
        # model's layer-by-layer total, or a group's latency divided by
        # the total, can differ in the last bit.
        self.total_ms = sum(k.latency_ms for k in kernels)
        self.groups = kernels_by_name(kernels)
        self.shares: dict[str, float] = {
            name: sum(k.latency_ms / self.total_ms for k in group.kernels)
            for name, group in self.groups.items()
        } if self.total_ms > 0 else {}


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
    layers: list[LayerDelta],
    totals: dict[str, Delta],
) -> list[DiffFinding]:
    """Ranked findings for an aligned profile pair."""
    base_view = _KernelView(baseline)
    cand_view = _KernelView(candidate)
    findings = [_latency_finding(baseline, candidate, layers, totals)]
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
    alignment: LayerAlignment = align_layers(baseline.layers, candidate.layers)
    layers: list[LayerDelta] = [
        _layer_delta(m.baseline, m.candidate, via=m.via)
        for m in alignment.matched
    ]
    layers.extend(_layer_delta(l, None) for l in alignment.removed)
    layers.extend(_layer_delta(None, l) for l in alignment.added)
    totals = _totals(baseline, candidate)
    return ProfileDiff(
        baseline=_identity(baseline),
        candidate=_identity(candidate),
        totals=totals,
        layers=layers,
        findings=classify(baseline, candidate, layers, totals),
    )

"""Differential-analysis data model: what changed between two profiles.

XSP's headline workflow is comparative — the paper's Tables VIII-X
profile the same models across systems and frameworks and explain *why*
one configuration beats another.  A :class:`ProfileDiff` is that
explanation in machine-checkable form: model-level rollups, a
:class:`DiffTable` of per-layer and per-kernel numbers between an
aligned *baseline* and *candidate* profile, and ranked
:class:`DiffFinding`\\ s whose :class:`~repro.insights.model.Evidence`
resolves against **both** source profiles (baseline references against
the baseline, candidate references against the candidate).

The table keeps one row per aligned layer pair and one per (layer pair,
kernel name) group, and for each compared metric one baseline and one
candidate column.  :meth:`ProfileDiff.to_json` writes every row from a
fixed template, formatting each column once, and is the diff's one
serializer: :meth:`ProfileDiff.to_dict` parses its text.
:class:`LayerDelta` and :class:`KernelDelta` are read-only views of table
rows, built only when asked for.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode
from math import isfinite
from operator import sub
from typing import Any, Callable, Sequence

import numpy as np

from repro.insights.model import Evidence, severity_label

#: Finding kinds a diff can classify (see repro.analysis.diff.engine).
FINDING_KINDS = (
    "regression",
    "improvement",
    "new-hotspot",
    "kernel-mix-shift",
)

#: Labels and compared metrics of a layer row and of a kernel-group
#: row, in the order the JSON document lists them.
LAYER_LABELS = ("name", "layer_type", "status", "via", "baseline_index",
                "candidate_index")
LAYER_METRICS = ("latency_ms", "flops", "dram_bytes", "occupancy",
                 "alloc_bytes")
KERNEL_LABELS = ("name", "status")
KERNEL_METRICS = ("count", "latency_ms", "flops", "dram_bytes", "occupancy")


def _json_number(value: float) -> float | None:
    """Strict-JSON form of a possibly-infinite measurement.

    ``json.dumps`` would emit the non-standard ``Infinity`` token (which
    jq / ``JSON.parse`` / most strict parsers reject), so unbounded
    ratios serialize as ``null`` — "no finite value" — instead.
    """
    return value if math.isfinite(value) else None


def _ratio(baseline: float, candidate: float) -> float:
    """candidate / baseline; 1.0 when both are zero, inf when only the
    baseline is."""
    if baseline == 0:
        return 1.0 if candidate == 0 else math.inf
    return candidate / baseline


def _json_value(value: float) -> str:
    """A number as ``json.dumps`` writes it, non-finite ones included."""
    return json.dumps(value)


def _json_ratio(value: float) -> str:
    """A ratio as JSON text: ``null`` when it has no finite value."""
    return repr(value) if isfinite(value) else "null"


#: A column as JSON text, dictionary-encoded: its distinct texts, and
#: each row's index into them.
Encoded = tuple[list[str], np.ndarray]


def _number_texts(
    values: np.ndarray, nonfinite: Callable[[float], str] = _json_value
) -> Encoded:
    """An int64 or float64 column as JSON text.

    A finite value prints as its ``repr`` (what ``json.dumps`` writes for
    a Python int or float), any other as ``nonfinite(value)``.  Each
    distinct value, bit for bit, is formatted once: ``-0.0 == 0.0``, but
    the two print differently.
    """
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, codes = np.unique(keys, return_inverse=True)
    distinct = distinct.view(values.dtype)
    texts = list(map(repr, distinct.tolist()))
    for i in np.flatnonzero(~np.isfinite(distinct)).tolist():
        texts[i] = nonfinite(distinct[i])
    return texts, codes


def _label_texts(values: Sequence[str | int | None]) -> Encoded:
    """A column of strings, ints and Nones as JSON text, each distinct
    value encoded once."""
    distinct = list(dict.fromkeys(values))
    code = dict(zip(distinct, range(len(distinct))))
    texts = ["null" if v is None else _encode(v) if isinstance(v, str)
             else repr(v) for v in distinct]
    return texts, np.fromiter(map(code.__getitem__, values), np.intp,
                              len(values))


def _write(rows: np.ndarray, at: np.ndarray, template: str,
           columns: Sequence[Encoded]) -> None:
    """Write rows ``at`` of the piece array ``rows``, one piece per
    field of ``template``: a row's pieces join to ``template % row``.
    The template's text between two fields is glued onto the distinct
    texts of the neighbour with fewer of them."""
    literals = template.split("%s")
    heads = [literals[0]] + [""] * (len(columns) - 1)
    tails = [""] * (len(columns) - 1) + [literals[-1]]
    for i, literal in enumerate(literals[1:-1], 1):
        if len(columns[i - 1][0]) <= len(columns[i][0]):
            tails[i - 1] = literal
        else:
            heads[i] = literal
    for i, (head, (texts, codes), tail) in enumerate(
            zip(heads, columns, tails, strict=True)):
        if head or tail:
            texts = [head + text + tail for text in texts]
        rows[at, i] = np.array(texts, dtype=object)[codes]


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
        return _ratio(self.baseline, self.candidate)

    @property
    def pct_change(self) -> float:
        """Relative change in percent (+ = candidate larger)."""
        ratio = self.ratio
        return math.inf if math.isinf(ratio) else 100.0 * (ratio - 1.0)

    def to_json(self) -> str:
        return _DELTA % (_json_value(self.baseline),
                         _json_value(self.candidate),
                         _json_value(self.delta), _json_ratio(self.ratio))

    def format(self, unit: str = "", spec: str = ".3f") -> str:
        pct = self.pct_change
        arrow = "=" if self.delta == 0 else ("+" if self.delta > 0 else "-")
        pct_s = "inf%" if math.isinf(pct) else f"{abs(pct):.1f}%"
        return (
            f"{self.baseline:{spec}}{unit} -> {self.candidate:{spec}}{unit} "
            f"({arrow}{pct_s})"
        )


# -- the table ----------------------------------------------------------------


class DiffRows:
    """Rows of one kind, by column: label columns (names, statuses, ...)
    and, per compared metric, a baseline and a candidate column.  The
    missing side of an added or removed row reads as zero."""

    def __init__(
        self, labels: dict[str, Sequence[Any]],
        metrics: dict[str, tuple[Sequence[float], Sequence[float]]],
    ) -> None:
        self.labels = labels
        self.metrics = metrics
        self.n = len(next(iter(labels.values())))

    def __len__(self) -> int:
        return self.n

    def delta(self, metric: str) -> list[float]:
        """candidate - baseline of ``metric``, row by row."""
        baseline, candidate = self.metrics[metric]
        return list(map(sub, candidate, baseline))

    def texts(self, metric: str) -> list[Encoded]:
        """``metric``'s baseline, candidate, delta and ratio columns as
        JSON text.  The baseline and candidate columns share one set of
        distinct texts, so a value on both sides (every value, in a
        self-diff) is formatted once."""
        baseline, candidate = map(np.asarray, self.metrics[metric])
        # Elementwise, as Delta computes them (inf - inf is NaN).
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = candidate - baseline
            ratio = np.where(
                baseline == 0, np.where(candidate == 0, 1.0, np.inf),
                candidate / baseline,
            )
        texts, codes = _number_texts(np.concatenate([baseline, candidate]))
        return [
            (texts, codes[:self.n]),
            (texts, codes[self.n:]),
            _number_texts(delta),
            _number_texts(ratio, lambda _: "null"),
        ]


_DELTA = '{"baseline": %s, "candidate": %s, "delta": %s, "ratio": %s}'


def _row_template(labels: Sequence[str], metrics: Sequence[str]) -> str:
    """A row's labels and Deltas, after a separator field."""
    return "%s{" + ", ".join([
        *(f'"{label}": %s' for label in labels),
        *(f'"{metric}": {_DELTA}' for metric in metrics),
    ])


#: One kernel group.  The separator is "" for a layer's first group and
#: ", " after it.
_KERNEL_ROW = _row_template(KERNEL_LABELS, KERNEL_METRICS) + "}"
#: One layer, up to its kernel list.  The separator closes the layer
#: before it ("" for the first layer).
_LAYER_HEAD = _row_template(LAYER_LABELS, LAYER_METRICS) + ', "kernels": ['


@dataclass(frozen=True)
class DiffTable:
    """Every per-layer and per-kernel number of a diff.

    ``layers`` has one row per aligned layer pair (or one-sided layer),
    labelled ``name``, ``layer_type``, ``status``, ``via``,
    ``baseline_index`` and ``candidate_index``; ``kernels`` has one row
    per (layer row, kernel name) group, labelled ``name`` and
    ``status``.  Layer row ``i`` owns kernel rows
    ``kernel_start[i]:kernel_start[i + 1]``.
    """

    layers: DiffRows
    kernels: DiffRows
    kernel_start: Sequence[int]

    def json_pieces(self) -> list[str]:
        """The layer list's JSON text, brackets excluded, in pieces.

        Every column is formatted once (:meth:`DiffRows.texts`) and
        written into one array of pieces, a row per layer and kernel row
        in document order: each layer, then its kernel groups.
        """
        layers, kernels, start = self.layers, self.kernels, self.kernel_start
        if not len(layers):
            return []
        counts = np.diff(start)
        layer_at = np.arange(len(layers)) + start[:-1]
        kernel_at = np.delete(np.arange(len(layers) + len(kernels)), layer_at)
        # A layer's closing of the layer before it, and a kernel row's
        # separator from the row before it in its layer.
        closings = np.ones(len(layers), dtype=np.intp)
        closings[0] = 0
        separators = np.ones(len(kernels), dtype=np.intp)
        separators[np.asarray(start[:-1])[counts > 0]] = 0
        rows = np.full((len(layers) + len(kernels),
                        1 + len(LAYER_LABELS) + 4 * len(LAYER_METRICS)),
                       "", dtype=object)
        _write(rows, layer_at, _LAYER_HEAD, [
            (["", "]}, "], closings),
            *(_label_texts(layers.labels[name]) for name in LAYER_LABELS),
            *chain.from_iterable(map(layers.texts, LAYER_METRICS)),
        ])
        _write(rows, kernel_at, _KERNEL_ROW, [
            (["", ", "], separators),
            *(_label_texts(kernels.labels[name]) for name in KERNEL_LABELS),
            *chain.from_iterable(map(kernels.texts, KERNEL_METRICS)),
        ])
        return [*rows.ravel().tolist(), "]}"]


# -- row views ----------------------------------------------------------------


class _RowView:
    """A read-only view of one row of a :class:`DiffRows`."""

    __slots__ = ("_rows", "_row")

    def __init__(self, rows: DiffRows, row: int) -> None:
        self._rows = rows
        self._row = row


def _label(column: str) -> property:
    return property(lambda self: self._rows.labels[column][self._row])


def _delta(metric: str) -> property:
    def get(self: _RowView) -> Delta:
        baseline, candidate = self._rows.metrics[metric]
        return Delta(baseline[self._row], candidate[self._row])

    return property(get)


class KernelDelta(_RowView):
    """All same-named kernels of one aligned layer pair, side by side.

    Kernels are matched per-layer by name; counts can differ (algorithm
    switches change launch counts), so each side is the *aggregate* over
    its same-named group.  ``status`` is ``matched`` / ``added`` (only in
    the candidate) / ``removed`` (only in the baseline); the missing side
    of an added/removed kernel reads as zero.  ``occupancy`` is the
    latency-weighted achieved occupancy.
    """

    __slots__ = ()
    name = _label("name")
    status = _label("status")
    count = _delta("count")
    latency_ms = _delta("latency_ms")
    flops = _delta("flops")
    dram_bytes = _delta("dram_bytes")
    occupancy = _delta("occupancy")


class LayerDelta(_RowView):
    """One aligned layer (or a layer present on only one side).

    ``status`` is ``matched`` / ``added`` / ``removed``; for matched
    layers ``via`` records the alignment rule that paired them
    (``name`` / ``type`` / ``index``).  Indices are per-side
    (``baseline_index`` resolves against the baseline profile,
    ``candidate_index`` against the candidate); the absent side of an
    added/removed layer is ``None`` and its metrics read as zero.
    """

    __slots__ = ("_table",)
    name = _label("name")
    layer_type = _label("layer_type")
    status = _label("status")
    via = _label("via")
    baseline_index = _label("baseline_index")
    candidate_index = _label("candidate_index")
    latency_ms = _delta("latency_ms")
    flops = _delta("flops")
    dram_bytes = _delta("dram_bytes")
    occupancy = _delta("occupancy")
    alloc_bytes = _delta("alloc_bytes")

    def __init__(self, table: DiffTable, row: int) -> None:
        super().__init__(table.layers, row)
        self._table = table

    @property
    def kernels(self) -> tuple[KernelDelta, ...]:
        start = self._table.kernel_start
        rows = self._table.kernels
        return tuple(KernelDelta(rows, row)
                     for row in range(start[self._row], start[self._row + 1]))


@dataclass(frozen=True)
class DiffFinding:
    """One classified, ranked change between the two profiles.

    Severity reuses the insight engine's conventions (``ramp`` + the
    info/warning/critical bands); the evidence is split per side so every
    span id / layer index / kernel name resolves against the profile it
    was measured on.
    """

    kind: str  #: one of :data:`FINDING_KINDS`
    title: str
    severity: float  #: in [0, 1]
    recommendation: str
    baseline_evidence: tuple[Evidence, ...] = ()
    candidate_evidence: tuple[Evidence, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FINDING_KINDS:
            raise ValueError(
                f"unknown finding kind {self.kind!r}; valid: {FINDING_KINDS}"
            )
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError(
                f"severity must be in [0, 1], got {self.severity} "
                f"({self.kind!r})"
            )

    @property
    def severity_band(self) -> str:
        return severity_label(self.severity)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "title": self.title,
            "severity": self.severity,
            "severity_band": self.severity_band,
            "recommendation": self.recommendation,
            "baseline_evidence": [e.to_dict() for e in self.baseline_evidence],
            "candidate_evidence": [
                e.to_dict() for e in self.candidate_evidence
            ],
        }

    def render(self) -> str:
        lines = [
            f"[{self.severity_band.upper():>8} {self.severity:.2f}] "
            f"{self.title}  ({self.kind})",
            f"    -> {self.recommendation}",
        ]
        for side, evidence in (
            ("baseline", self.baseline_evidence),
            ("candidate", self.candidate_evidence),
        ):
            for ev in evidence:
                lines.append(f"    * {side}: {ev.summary}")
        return "\n".join(lines)


#: Model-level rollup metrics (name -> display unit/format) in render order.
ROLLUP_METRICS = (
    ("model_latency_ms", " ms", ".3f"),
    ("kernel_latency_ms", " ms", ".3f"),
    ("throughput", " /s", ".1f"),
    ("flops", "", ".3e"),
    ("dram_bytes", "", ".3e"),
    ("achieved_occupancy", "", ".3f"),
    ("alloc_bytes", "", ".3e"),
    ("n_kernels", "", ".0f"),
)


@dataclass
class ProfileDiff:
    """The aligned, classified difference between two profiles."""

    baseline: dict[str, Any]  #: identity of side A (model/system/...)
    candidate: dict[str, Any]  #: identity of side B
    totals: dict[str, Delta]  #: model-level rollups (see ROLLUP_METRICS)
    table: DiffTable  #: per-layer and per-kernel numbers
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
    @cached_property
    def layers(self) -> list[LayerDelta]:
        """Every layer row, in table order."""
        return [LayerDelta(self.table, row)
                for row in range(len(self.table.layers))]

    def findings_above(self, min_severity: float) -> list[DiffFinding]:
        return [f for f in self.findings if f.severity >= min_severity]

    def layers_with_status(self, status: str) -> list[LayerDelta]:
        return [LayerDelta(self.table, row) for row, s
                in enumerate(self.table.layers.labels["status"])
                if s == status]

    # -- output ---------------------------------------------------------------
    def to_json(self, *, min_severity: float = 0.0) -> str:
        """The diff as one JSON document: the text ``json.dumps`` writes
        for it, built as one string.

        Every layer and kernel row comes from a fixed template filled
        from the table's columns (:meth:`DiffTable.json_pieces`).
        Non-finite ratios, ``speedup`` and ``regression_fraction`` are
        ``null``; other non-finite numbers are ``NaN`` / ``Infinity``,
        as ``json.dumps`` writes them.
        """
        totals = ", ".join(f"{_encode(name)}: {delta.to_json()}"
                           for name, delta in self.totals.items())
        findings = [f.to_dict() for f in self.findings_above(min_severity)]
        head = (
            f'{{"baseline": {json.dumps(self.baseline)}, '
            f'"candidate": {json.dumps(self.candidate)}, '
            f'"speedup": {_json_ratio(self.speedup)}, '
            f'"regression_fraction": {_json_ratio(self.regression_fraction)}'
            f', "totals": {{{totals}}}, "layers": ['
        )
        tail = f'], "findings": {json.dumps(findings, check_circular=False)}}}'
        return "".join([head, *self.table.json_pieces(), tail])

    def to_dict(self, *, min_severity: float = 0.0) -> dict[str, Any]:
        """The parsed :meth:`to_json` document."""
        return json.loads(self.to_json(min_severity=min_severity))

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
        status = self.table.layers.labels["status"]
        added, removed = status.count("added"), status.count("removed")
        if added or removed:
            lines.append(
                f"layer alignment: {status.count('matched')} "
                f"matched, {added} only in candidate, "
                f"{removed} only in baseline"
            )
        deltas = self.table.layers.delta("latency_ms")
        movers = sorted(
            (row for row, delta in enumerate(deltas) if delta != 0),
            key=lambda row: -abs(deltas[row]),
        )[:max_layers]
        if movers:
            lines.append("")
            lines.append(f"top layer movers (of {len(deltas)} layers):")
            for row in movers:
                layer = LayerDelta(self.table, row)
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

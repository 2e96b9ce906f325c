"""Grid-vs-grid differential analysis: ``CampaignResult.diff(other)``.

A campaign grid profiled twice — under a different framework, system,
or code revision — is an A/B experiment per point.  This module aligns
the two grids point-by-point, diffs every matched pair with
:func:`~repro.analysis.diff.engine.diff_profiles`, and summarizes the
distribution of speedups plus the OOM-point *set differences* (a
configuration that fits on one side but not the other is itself a
finding).

Point matching drops the grid's comparison axis automatically: a field
(model / system / framework / batch) that is constant within each grid
but differs *between* them (e.g. every point TF on one side, MXNet on
the other) is excluded from the match key and reported as the diff axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.analysis.diff.engine import diff_profiles
from repro.analysis.diff.model import ProfileDiff, _json_number
from repro.core.pipeline import ModelProfile

#: Point fields considered for matching, in label order.
KEY_FIELDS = ("model", "system", "framework", "batch")


def _point_key(point: Any) -> dict[str, Any]:
    """The full coordinate dict of a CampaignPoint-like object."""
    from repro.models import get_model

    return {
        "model": get_model(point.model).name,
        "system": point.system,
        "framework": point.framework,
        "batch": point.batch,
    }


def _match_fields(
    base_keys: list[dict[str, Any]], cand_keys: list[dict[str, Any]]
) -> tuple[tuple[str, ...], dict[str, tuple[Any, Any]]]:
    """Fields to match on, plus the dropped (axis) fields' two values.

    A field is dropped from the match key iff it is constant within each
    grid but the two constants differ — that field *is* the comparison.
    """
    fields: list[str] = []
    axis: dict[str, tuple[Any, Any]] = {}
    for name in KEY_FIELDS:
        base_values = {k[name] for k in base_keys}
        cand_values = {k[name] for k in cand_keys}
        if (
            len(base_values) == 1
            and len(cand_values) == 1
            and base_values != cand_values
        ):
            axis[name] = (next(iter(base_values)), next(iter(cand_values)))
        else:
            fields.append(name)
    return tuple(fields), axis


def _reduced(key: dict[str, Any], fields: tuple[str, ...]) -> tuple:
    return tuple(key[f] for f in fields)


def _label(reduced: tuple, fields: tuple[str, ...]) -> str:
    return "|".join(f"{f}={v}" for f, v in zip(fields, reduced)) or "(all)"


@dataclass
class CampaignDiff:
    """Every matched point diffed, plus grid-level set differences."""

    #: Comparison axis: field -> (baseline value, candidate value).
    axis: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    #: Matched-point diffs keyed by the reduced point label.
    diffs: dict[str, ProfileDiff] = field(default_factory=dict)
    #: Points profiled on only one side (no counterpart to diff against).
    only_in_baseline: tuple[str, ...] = ()
    only_in_candidate: tuple[str, ...] = ()
    #: OOM set differences: configurations that fit on exactly one side.
    newly_oom: tuple[str, ...] = ()  #: OOM in candidate, fine in baseline
    resolved_oom: tuple[str, ...] = ()  #: OOM in baseline, fine in candidate
    oom_in_both: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.diffs)

    # -- aggregates -----------------------------------------------------------
    @property
    def mean_speedup(self) -> float:
        if not self.diffs:
            return 1.0
        speedups = [d.speedup for d in self.diffs.values()]
        return sum(speedups) / len(speedups)

    @property
    def max_regression_fraction(self) -> float:
        return max(
            (d.regression_fraction for d in self.diffs.values()), default=0.0
        )

    def regressed(self, *, beyond: float = 0.0) -> dict[str, ProfileDiff]:
        """Matched points whose candidate regressed more than ``beyond``."""
        return {
            label: d
            for label, d in self.diffs.items()
            if d.regression_fraction > beyond
        }

    def to_dict(self, *, min_severity: float = 0.0) -> dict[str, Any]:
        return {
            "axis": {k: list(v) for k, v in self.axis.items()},
            "mean_speedup": _json_number(self.mean_speedup),
            "max_regression_fraction": _json_number(
                self.max_regression_fraction
            ),
            "points": {
                label: d.to_dict(min_severity=min_severity)
                for label, d in self.diffs.items()
            },
            "only_in_baseline": list(self.only_in_baseline),
            "only_in_candidate": list(self.only_in_candidate),
            "newly_oom": list(self.newly_oom),
            "resolved_oom": list(self.resolved_oom),
            "oom_in_both": list(self.oom_in_both),
        }

    def render(self) -> str:
        if self.axis:
            axis = ", ".join(
                f"{name}: {a} -> {b}" for name, (a, b) in self.axis.items()
            )
        else:
            axis = "same coordinates (re-run vs re-run)"
        title = f"Campaign diff ({axis}): {len(self.diffs)} matched points"
        lines = [title, "=" * len(title)]
        if self.diffs:
            lines.append(
                f"mean speedup {self.mean_speedup:.2f}x; worst regression "
                f"{100 * self.max_regression_fraction:.1f}%"
            )
            ranked = sorted(
                self.diffs.items(), key=lambda item: item[1].speedup
            )
            for label, diff in ranked:
                verdict = (
                    "faster" if diff.speedup >= 1.0 else "SLOWER"
                )
                lines.append(
                    f"  {label:<48} {diff.speedup:>6.2f}x {verdict:<6} "
                    f"({diff.latency.format(' ms')})"
                )
        for caption, labels in (
            ("matched in baseline only", self.only_in_baseline),
            ("matched in candidate only", self.only_in_candidate),
            ("newly OOM in candidate", self.newly_oom),
            ("OOM resolved in candidate", self.resolved_oom),
            ("OOM on both sides", self.oom_in_both),
        ):
            if labels:
                lines.append(f"{caption}: {', '.join(labels)}")
        return "\n".join(lines)


def diff_campaigns(
    baseline_profiles: Mapping[Any, ModelProfile],
    candidate_profiles: Mapping[Any, ModelProfile],
    *,
    baseline_oom: Iterable[Any] = (),
    candidate_oom: Iterable[Any] = (),
) -> CampaignDiff:
    """Align two campaign grids and diff every matched point.

    Inputs are keyed by CampaignPoint-like objects (``model`` /
    ``system`` / ``framework`` / ``batch`` attributes) — exactly the
    shape of ``CampaignResult.profiles`` and ``.out_of_memory``.
    """
    base_points = list(baseline_profiles) + list(baseline_oom)
    cand_points = list(candidate_profiles) + list(candidate_oom)
    if not base_points or not cand_points:
        raise ValueError("diff_campaigns needs points on both sides")
    base_keys = [_point_key(p) for p in base_points]
    cand_keys = [_point_key(p) for p in cand_points]
    fields, axis = _match_fields(base_keys, cand_keys)

    def index(
        points: Iterable[Any], profiles: Mapping[Any, ModelProfile]
    ) -> dict[tuple, ModelProfile | None]:
        out: dict[tuple, ModelProfile | None] = {}
        for point in points:
            out[_reduced(_point_key(point), fields)] = profiles.get(point)
        return out

    base = index(base_points, baseline_profiles)
    cand = index(cand_points, candidate_profiles)

    result = CampaignDiff(axis=axis)
    diffs: dict[str, ProfileDiff] = {}
    only_base, only_cand = [], []
    newly_oom, resolved_oom, oom_both = [], [], []
    for reduced in sorted(set(base) | set(cand), key=str):
        label = _label(reduced, fields)
        in_base, in_cand = reduced in base, reduced in cand
        b = base.get(reduced)
        c = cand.get(reduced)
        if in_base and in_cand:
            if b is not None and c is not None:
                diffs[label] = diff_profiles(b, c)
            elif b is not None and c is None:
                newly_oom.append(label)
            elif b is None and c is not None:
                resolved_oom.append(label)
            else:
                oom_both.append(label)
        elif in_base:
            only_base.append(label)
        else:
            only_cand.append(label)
    result.diffs = diffs
    result.only_in_baseline = tuple(only_base)
    result.only_in_candidate = tuple(only_cand)
    result.newly_oom = tuple(newly_oom)
    result.resolved_oom = tuple(resolved_oom)
    result.oom_in_both = tuple(oom_both)
    return result

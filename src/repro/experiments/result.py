"""Experiment result container: paper-vs-measured with agreement checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Check:
    """One qualitative agreement check against the paper."""

    claim: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        mark = "OK " if self.passed else "DEV"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"  [{mark}] {self.claim}{suffix}"


@dataclass
class ExperimentResult:
    """Everything one experiment produces."""

    exp_id: str
    title: str
    paper: dict[str, Any] = field(default_factory=dict)
    measured: dict[str, Any] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    artifact: str = ""  # rendered table / series, for the report

    def check(self, claim: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(claim=claim, passed=bool(passed), detail=detail))

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    def render(self, *, include_artifact: bool = True) -> str:
        lines = [f"{self.exp_id}: {self.title}",
                 "-" * (len(self.exp_id) + 2 + len(self.title))]
        if self.paper:
            lines.append("paper:    " + _fmt(self.paper))
        if self.measured:
            lines.append("measured: " + _fmt(self.measured))
        lines.extend(c.render() for c in self.checks)
        if include_artifact and self.artifact:
            lines.append("")
            lines.append(self.artifact)
        return "\n".join(lines)


def _fmt(values: dict[str, Any]) -> str:
    parts = []
    for key, value in values.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return ", ".join(parts)

"""The insight engine: run registered rules over one profiled configuration.

The engine is deliberately dumb — all domain knowledge lives in the rules
(:mod:`repro.insights.rules`); the engine assembles the context, skips
rules whose ingredients are missing, collects their findings and ranks
them by severity.  Its output, an :class:`InsightReport`, is both
human-renderable (CLI/EXPERIMENTS.md) and machine-checkable (``to_dict``
round-trips every piece of evidence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.pipeline import ModelProfile
from repro.insights import registry
from repro.insights.model import Insight
from repro.sim.hardware import GPUSpec
from repro.tracing.trace import Trace


@dataclass
class InsightContext:
    """Everything a rule may consult for one (model, system, batch) point.

    ``profile`` is mandatory; ``trace`` (a raw capture, for timeline rules
    like idle-bubble detection) and ``sweep`` (batch -> latency or batch
    -> :class:`ModelProfile`, for scaling rules) are optional — rules
    declare what they need and are skipped when it is missing.
    """

    profile: ModelProfile
    trace: Trace | None = None
    #: batch -> model latency in ms (normalized from ``sweep`` inputs).
    sweep_latencies_ms: dict[int, float] = field(default_factory=dict)
    #: High-water device memory of the run, when known (else rules fall
    #: back to the profile's allocation totals).
    peak_device_memory_bytes: int | None = None

    @classmethod
    def build(
        cls,
        profile: ModelProfile,
        *,
        trace: Trace | None = None,
        sweep: Mapping[int, "ModelProfile | float"] | None = None,
        peak_device_memory_bytes: int | None = None,
    ) -> "InsightContext":
        """Normalize raw ingredients (e.g. ``AnalysisPipeline.sweep()``
        output or plain latency mappings) into a context."""
        latencies: dict[int, float] = {}
        for batch, value in (sweep or {}).items():
            latencies[int(batch)] = float(
                value.model_latency_ms
                if isinstance(value, ModelProfile)
                else value
            )
        return cls(
            profile=profile,
            trace=trace,
            sweep_latencies_ms=latencies,
            peak_device_memory_bytes=peak_device_memory_bytes,
        )

    @property
    def gpu(self) -> GPUSpec:
        return self.profile.gpu

    def has(self, requirement: str) -> bool:
        if requirement == "profile":
            return self.profile is not None
        if requirement == "trace":
            return self.trace is not None and len(self.trace) > 0
        if requirement == "sweep":
            return len(self.sweep_latencies_ms) >= 2
        raise ValueError(f"unknown requirement {requirement!r}")


@dataclass
class InsightReport:
    """Ranked findings for one profiled configuration."""

    model_name: str
    system: str
    framework: str
    batch: int
    insights: list[Insight] = field(default_factory=list)
    #: Rules skipped because the context lacked an ingredient.
    skipped_rules: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.insights)

    def __iter__(self):
        return iter(self.insights)

    @property
    def rules_fired(self) -> list[str]:
        return sorted({i.rule for i in self.insights})

    def above(self, min_severity: float) -> list[Insight]:
        return [i for i in self.insights if i.severity >= min_severity]

    def to_dict(self, *, min_severity: float = 0.0) -> dict[str, Any]:
        return {
            "model": self.model_name,
            "system": self.system,
            "framework": self.framework,
            "batch": self.batch,
            "insights": [i.to_dict() for i in self.above(min_severity)],
            "skipped_rules": dict(self.skipped_rules),
        }

    def render(self, *, min_severity: float = 0.0) -> str:
        header = (
            f"XSP insights: {self.model_name} | system {self.system} | "
            f"framework {self.framework} | batch {self.batch}"
        )
        lines = [header, "=" * len(header)]
        shown = self.above(min_severity)
        if not shown:
            lines.append("no insights at or above the requested severity")
        for insight in shown:
            lines.append(insight.render())
        hidden = len(self.insights) - len(shown)
        if hidden:
            lines.append(f"... ({hidden} below severity {min_severity:.2f})")
        if self.skipped_rules:
            skipped = ", ".join(
                f"{name} (needs {need})"
                for name, need in sorted(self.skipped_rules.items())
            )
            lines.append(f"skipped rules: {skipped}")
        return "\n".join(lines)


class InsightEngine:
    """Runs a rule set (default: the full registry) over contexts."""

    def __init__(self, rules: Iterable[registry.Rule] | None = None) -> None:
        self._explicit = list(rules) if rules is not None else None

    @property
    def rules(self) -> list[registry.Rule]:
        # Resolved per analyze() call so runtime (un)registration of
        # rules is honoured without rebuilding engines.
        return (
            self._explicit
            if self._explicit is not None
            else registry.all_rules()
        )

    def analyze(self, context: InsightContext) -> InsightReport:
        profile = context.profile
        report = InsightReport(
            model_name=profile.model_name,
            system=profile.system,
            framework=profile.framework,
            batch=profile.batch,
        )
        for rule_obj in self.rules:
            missing = [r for r in rule_obj.requires if not context.has(r)]
            if missing:
                report.skipped_rules[rule_obj.name] = "+".join(missing)
                continue
            report.insights.extend(rule_obj(context))
        # Severity-ranked, stable within equal severities (rule order).
        report.insights.sort(key=lambda i: -i.severity)
        return report


#: Distinguishes "ingredient never seen" from a legitimately-None
#: fingerprint (e.g. no trace attached) on the first analyze() call.
_UNSEEN = object()


class IncrementalInsightEngine(InsightEngine):
    """Watermark-aware engine for live / streaming analysis.

    Caches each rule's findings and re-evaluates a rule only when one of
    its declared ``requires`` ingredients actually changed since the
    previous :meth:`analyze` call: the trace's row watermark advanced,
    the profile object was replaced (or the device-memory high-water mark
    moved), or the sweep points changed.  An unchanged ingredient set
    reuses the cached findings verbatim, so re-analyzing a quiet capture
    runs zero rules, and a capture that only grew its trace re-runs only
    the trace rules.  Reports are identical to what a fresh
    :class:`InsightEngine` would produce on the same context.
    """

    def __init__(self, rules: Iterable[registry.Rule] | None = None) -> None:
        super().__init__(rules)
        self._fingerprints: dict[str, Any] = {}
        self._cache: dict[str, list[Insight]] = {}
        #: rule name -> number of times its function actually ran.
        self.evaluations: dict[str, int] = {}
        #: rules re-evaluated by the most recent analyze() call.
        self.last_refreshed: list[str] = []

    @staticmethod
    def _fingerprint(context: InsightContext, requirement: str) -> Any:
        """A value that changes iff the ingredient changed.

        The fingerprints hold the ingredient objects themselves (not
        ``id()``s — a dropped-and-reallocated object could reuse an id
        and silently serve stale findings): profiles compare by dataclass
        *content*, so a re-derived but identical profile correctly reads
        as unchanged; traces compare by identity plus the row watermark.
        Keeping the reference alive until the next analyze() is what
        makes the comparison sound.  The layer count leads the profile
        fingerprint, so a grown profile differs before any column is
        compared; neither reads ``profile.layers``.
        """
        if requirement == "profile":
            profile = context.profile
            return (len(profile.layer_table), profile,
                    context.peak_device_memory_bytes)
        if requirement == "trace":
            trace = context.trace
            return None if trace is None else (trace, trace.watermark)
        if requirement == "sweep":
            return tuple(sorted(context.sweep_latencies_ms.items()))
        raise ValueError(f"unknown requirement {requirement!r}")

    def analyze(self, context: InsightContext) -> InsightReport:
        fingerprints = {
            req: self._fingerprint(context, req)
            for req in registry.REQUIREMENTS
        }
        changed = {
            req
            for req, fp in fingerprints.items()
            if fp != self._fingerprints.get(req, _UNSEEN)
        }
        profile = context.profile
        report = InsightReport(
            model_name=profile.model_name,
            system=profile.system,
            framework=profile.framework,
            batch=profile.batch,
        )
        self.last_refreshed = []
        for rule_obj in self.rules:
            missing = [r for r in rule_obj.requires if not context.has(r)]
            if missing:
                report.skipped_rules[rule_obj.name] = "+".join(missing)
                self._cache.pop(rule_obj.name, None)
                continue
            cached = self._cache.get(rule_obj.name)
            if cached is None or changed.intersection(rule_obj.requires):
                cached = list(rule_obj(context))
                self._cache[rule_obj.name] = cached
                self.evaluations[rule_obj.name] = (
                    self.evaluations.get(rule_obj.name, 0) + 1
                )
                self.last_refreshed.append(rule_obj.name)
            report.insights.extend(cached)
        report.insights.sort(key=lambda i: -i.severity)
        self._fingerprints = fingerprints
        return report


def advise(
    profile: ModelProfile,
    *,
    trace: Trace | None = None,
    sweep: Mapping[int, "ModelProfile | float"] | None = None,
    peak_device_memory_bytes: int | None = None,
    rules: Iterable[registry.Rule] | None = None,
) -> InsightReport:
    """One-call convenience: build a context and run the engine."""
    context = InsightContext.build(
        profile,
        trace=trace,
        sweep=sweep,
        peak_device_memory_bytes=peak_device_memory_bytes,
    )
    return InsightEngine(rules).analyze(context)

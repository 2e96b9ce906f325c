"""Insight engine: rule-based across-stack bottleneck detection.

XSP's central claim is that correlating model-, framework-, and
library-level profiles enables optimization insights "not possible at any
single stack level".  This package automates that step: a pluggable
registry of rules (:mod:`repro.insights.registry`) consumes a
:class:`~repro.core.pipeline.ModelProfile` plus optional raw
:class:`~repro.tracing.trace.Trace` and batch-sweep data, and emits
ranked, evidence-backed :class:`~repro.insights.model.Insight` objects —
every claim resolving back to span ids, layer indices, and kernel names
in the source capture.

Entry points:

* :func:`advise` / :class:`InsightEngine` — one configuration.
* :func:`aggregate_insights` / :class:`CampaignInsights` — a whole
  campaign grid ("hotspot kernel X dominates in 12/20 configs").
* ``AnalysisPipeline.advise`` and the ``repro advise`` CLI wire this into
  the profiling pipeline end to end.
"""

from repro.insights.model import (
    Evidence,
    Insight,
    ramp,
    severity_label,
)
from repro.insights.registry import (
    Rule,
    all_rules,
    get_rule,
    register,
    rule,
    rule_names,
    unregister,
)
from repro.insights.engine import (
    IncrementalInsightEngine,
    InsightContext,
    InsightEngine,
    InsightReport,
    advise,
)
from repro.insights.live import LiveMonitor, LiveUpdate
from repro.insights.rules import BUILTIN_RULES  # registers built-in rules
from repro.insights.campaign import (
    CampaignInsights,
    SystemicInsight,
    aggregate_insights,
)

__all__ = [
    "BUILTIN_RULES",
    "CampaignInsights",
    "Evidence",
    "IncrementalInsightEngine",
    "Insight",
    "InsightContext",
    "InsightEngine",
    "InsightReport",
    "LiveMonitor",
    "LiveUpdate",
    "Rule",
    "SystemicInsight",
    "advise",
    "aggregate_insights",
    "all_rules",
    "get_rule",
    "ramp",
    "register",
    "rule",
    "rule_names",
    "severity_label",
    "unregister",
]

"""Engine behavior: context ingredients, skipping, ranking, reports."""

import json

import pytest

from repro.insights import (
    Insight,
    InsightContext,
    InsightEngine,
    Rule,
    advise,
)
from repro.insights.rules import BUILTIN_RULES

from factories import make_matching_trace


def test_context_ingredients(basic_profile):
    ctx = InsightContext.build(basic_profile)
    assert ctx.has("profile")
    assert not ctx.has("trace")
    assert not ctx.has("sweep")
    with pytest.raises(ValueError, match="unknown requirement"):
        ctx.has("weather")

    full = InsightContext.build(
        basic_profile,
        trace=make_matching_trace(basic_profile),
        sweep={1: 2.0, 2: 3.0},
    )
    assert full.has("trace") and full.has("sweep")
    # A single sweep point cannot place a knee.
    assert not InsightContext.build(basic_profile, sweep={1: 2.0}).has("sweep")


def test_sweep_normalization(basic_profile):
    # Profiles and raw latencies normalize to the same mapping.
    ctx = InsightContext.build(
        basic_profile, sweep={1: basic_profile, 2: 7.5}
    )
    assert ctx.sweep_latencies_ms == {
        1: basic_profile.model_latency_ms,
        2: 7.5,
    }


def test_profile_only_analysis_skips_and_reports(basic_profile):
    report = InsightEngine().analyze(InsightContext.build(basic_profile))
    assert report.skipped_rules == {
        "batch-scaling-knee": "sweep",
        "gpu-idle-bubbles": "trace",
    }
    # Everything else fired.
    assert set(report.rules_fired) == set(BUILTIN_RULES) - {
        "batch-scaling-knee", "gpu-idle-bubbles",
    }
    assert "skipped rules" in report.render()


def test_full_context_fires_all_builtin_rules(basic_profile):
    report = advise(
        basic_profile,
        trace=make_matching_trace(basic_profile, gap_us=50.0),
        sweep={1: 4.0, 2: 5.0, 4: 7.0, 8: 12.0, 16: 24.0},
        peak_device_memory_bytes=int(2e9),
    )
    assert set(report.rules_fired) == set(BUILTIN_RULES)
    assert not report.skipped_rules


def test_ranking_is_severity_descending(basic_profile):
    report = advise(basic_profile)
    severities = [i.severity for i in report.insights]
    assert severities == sorted(severities, reverse=True)


def test_custom_rule_set(basic_profile):
    calls = []

    def only_rule(ctx):
        calls.append(ctx.profile.model_name)
        return [Insight(rule="custom", title="hello", severity=0.5,
                        recommendation="none")]

    engine = InsightEngine([
        Rule(name="custom", description="", requires=("profile",),
             func=only_rule)
    ])
    report = engine.analyze(InsightContext.build(basic_profile))
    assert calls == ["synthetic"]
    assert report.rules_fired == ["custom"]
    assert [i.title for i in report if i.rule == "custom"] == ["hello"]


def test_report_filters_and_serialization(basic_profile):
    report = advise(basic_profile)
    assert len(report.above(0.0)) == len(report)
    assert len(report.above(2.0)) == 0
    rendered = report.render(min_severity=2.0)
    assert "no insights at or above" in rendered

    data = report.to_dict()
    assert data["model"] == "synthetic"
    assert data["system"] == "Tesla_V100"
    assert len(data["insights"]) == len(report)
    json.dumps(data)

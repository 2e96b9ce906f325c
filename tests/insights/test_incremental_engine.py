"""IncrementalInsightEngine: re-evaluate only rules whose ingredients changed."""

from __future__ import annotations

from dataclasses import replace

from factories import build_basic_profile, make_matching_trace

from repro.insights import (
    IncrementalInsightEngine,
    Insight,
    InsightContext,
    InsightEngine,
    Rule,
)
from repro.tracing import Level, Span


def _probe_rule(name: str, requires: tuple[str, ...], counter: dict):
    def func(ctx):
        counter[name] = counter.get(name, 0) + 1
        return [
            Insight(
                rule=name,
                title=name,
                severity=0.5,
                recommendation="n/a",
            )
        ]

    return Rule(name=name, description=name, requires=requires, func=func)


def _context(profile=None, trace=None, sweep=None, peak=None):
    return InsightContext.build(
        profile if profile is not None else build_basic_profile(),
        trace=trace,
        sweep=sweep,
        peak_device_memory_bytes=peak,
    )


def _probe_engine():
    counter: dict[str, int] = {}
    rules = [
        _probe_rule("p-only", ("profile",), counter),
        _probe_rule("t-rule", ("profile", "trace"), counter),
        _probe_rule("s-rule", ("profile", "sweep"), counter),
    ]
    return IncrementalInsightEngine(rules), counter


def test_first_analyze_runs_everything_then_nothing():
    engine, counter = _probe_engine()
    profile = build_basic_profile()
    trace = make_matching_trace(profile)
    context = _context(profile, trace=trace, sweep={1: 5.0, 2: 8.0})
    report = engine.analyze(context)
    assert counter == {"p-only": 1, "t-rule": 1, "s-rule": 1}
    assert sorted(engine.last_refreshed) == ["p-only", "s-rule", "t-rule"]
    # Unchanged context: zero rule evaluations, identical report.
    again = engine.analyze(context)
    assert counter == {"p-only": 1, "t-rule": 1, "s-rule": 1}
    assert engine.last_refreshed == []
    assert [i.rule for i in again] == [i.rule for i in report]


def test_trace_growth_refreshes_only_trace_rules():
    engine, counter = _probe_engine()
    profile = build_basic_profile()
    trace = make_matching_trace(profile)
    context = _context(profile, trace=trace, sweep={1: 5.0, 2: 8.0})
    engine.analyze(context)
    trace.add(Span("late", 0, 5, Level.MODEL, span_id=10_000))
    engine.analyze(context)
    assert counter == {"p-only": 1, "t-rule": 2, "s-rule": 1}
    assert engine.last_refreshed == ["t-rule"]


def test_sweep_change_refreshes_only_sweep_rules():
    engine, counter = _probe_engine()
    profile = build_basic_profile()
    trace = make_matching_trace(profile)
    context = _context(profile, trace=trace, sweep={1: 5.0, 2: 8.0})
    engine.analyze(context)
    context.sweep_latencies_ms[4] = 13.0
    engine.analyze(context)
    assert counter == {"p-only": 1, "t-rule": 1, "s-rule": 2}


def test_profile_replacement_refreshes_profile_dependents():
    engine, counter = _probe_engine()
    trace = make_matching_trace(build_basic_profile())
    engine.analyze(_context(trace=trace, sweep={1: 5.0, 2: 8.0}))
    # A re-derived but content-identical profile reads as unchanged
    # (the live flow rebuilds the profile object on every refresh) ...
    engine.analyze(_context(trace=trace, sweep={1: 5.0, 2: 8.0}))
    assert counter == {"p-only": 1, "t-rule": 1, "s-rule": 1}
    # ... while an actual content change re-runs every profile consumer.
    basic = build_basic_profile()
    changed = replace(basic, model_latency_ms=basic.model_latency_ms * 2)
    engine.analyze(
        _context(changed, trace=trace, sweep={1: 5.0, 2: 8.0})
    )
    assert counter == {"p-only": 2, "t-rule": 2, "s-rule": 2}


def test_missing_ingredient_skips_and_reevaluates_on_arrival():
    engine, counter = _probe_engine()
    profile = build_basic_profile()
    report = engine.analyze(_context(profile))
    assert counter == {"p-only": 1}
    assert report.skipped_rules == {"t-rule": "trace", "s-rule": "sweep"}
    trace = make_matching_trace(profile)
    report = engine.analyze(_context(profile, trace=trace))
    assert counter["t-rule"] == 1
    assert report.skipped_rules == {"s-rule": "sweep"}


def test_matches_plain_engine_on_builtin_rules():
    """Grow a trace across refreshes: every incremental report must be
    identical to a fresh full-engine run over the same context."""
    profile = build_basic_profile()
    full_trace = make_matching_trace(profile, gap_us=50.0)
    spans = [s for s in full_trace.spans]

    incremental = IncrementalInsightEngine()
    from repro.tracing import Trace

    growing = Trace(trace_id=1)
    for cut in (len(spans) // 3, 2 * len(spans) // 3, len(spans)):
        while len(growing) < cut:
            view = spans[len(growing)]
            growing.add(
                Span(view.name, view.start_ns, view.end_ns, view.level,
                     span_id=view.span_id, kind=view.kind,
                     parent_id=view.parent_id,
                     correlation_id=view.correlation_id,
                     tags=dict(view.iter_tags()))
            )
        context = _context(profile, trace=growing, sweep={1: 5.0, 2: 8.0})
        live = incremental.analyze(context)
        reference = InsightEngine().analyze(context)
        assert [
            (i.rule, i.title, i.severity) for i in live
        ] == [(i.rule, i.title, i.severity) for i in reference]
        assert live.skipped_rules == reference.skipped_rules


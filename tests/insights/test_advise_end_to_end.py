"""End-to-end acceptance: the advise pipeline on real zoo models.

The ISSUE's acceptance bar: ``repro advise`` emits >= 8 distinct rule
types on at least one zoo model, each insight carrying severity plus
structured evidence that resolves against the source data.
"""

import pytest

from repro.core import AnalysisPipeline, XSPSession
from repro.insights.rules import BUILTIN_RULES
from repro.models import get_model


@pytest.fixture(scope="module")
def advise_report():
    pipeline = AnalysisPipeline(
        XSPSession("Tesla_V100", "tensorflow_like"), runs_per_level=1
    )
    return pipeline.advise(
        get_model(7).graph, 4, sweep_batches=[1, 2, 4, 8]
    )


def test_at_least_eight_rules_fire(advise_report):
    fired = advise_report.rules_fired
    assert len(fired) >= 8, f"only {fired} fired"
    assert set(fired) == set(BUILTIN_RULES)
    assert not advise_report.skipped_rules


def test_every_insight_has_severity_and_evidence(advise_report):
    assert len(advise_report) >= 8
    for insight in advise_report:
        assert 0.0 <= insight.severity <= 1.0
        assert insight.severity_band in ("info", "warning", "critical")
        assert insight.recommendation
        assert insight.evidence
        for ev in insight.evidence:
            assert ev.summary and ev.kind


def test_evidence_resolves_against_sources(advise_report):
    profile_layers = None
    kernel_names = None
    # Rebuild the source views the report's evidence points into.
    pipeline = AnalysisPipeline(
        XSPSession("Tesla_V100", "tensorflow_like"), runs_per_level=1
    )
    profile = pipeline.profile_model(get_model(7).graph, 4)
    profile_layers = {layer.index for layer in profile.layers}
    kernel_names = {k.name for k in profile.kernels}
    for insight in advise_report:
        for ev in insight.evidence:
            for idx in ev.layer_indices:
                assert idx in profile_layers
            if ev.kind in ("kernel", "layer"):
                for name in ev.kernel_names:
                    assert name in kernel_names


def test_knee_uses_the_sweep(advise_report):
    knee = [i for i in advise_report if i.rule == "batch-scaling-knee"]
    assert len(knee) == 1
    sweep_ev = knee[0].evidence[0]
    assert sweep_ev.kind == "sweep"
    # All four swept batches are quoted as measured throughputs.
    assert set(sweep_ev.measured) == {"1", "2", "4", "8"}


def test_oom_sweep_batches_are_dropped():
    # MLPerf SSD ResNet34 (1200x1200) cannot fit batch 64 on a P4; the
    # sweep silently stops at the largest feasible batch.
    pipeline = AnalysisPipeline(
        XSPSession("Tesla_P4", "tensorflow_like"), runs_per_level=1
    )
    report = pipeline.advise(
        get_model(46).graph, 1, sweep_batches=[1, 2, 64, 128]
    )
    knee = [i for i in report if i.rule == "batch-scaling-knee"]
    assert knee, "knee rule should still fire on the feasible prefix"
    assert set(knee[0].evidence[0].measured) == {"1", "2"}

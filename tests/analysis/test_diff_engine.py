"""diff_profiles: deltas, rollups, and finding classification."""

import json
from dataclasses import replace

import pytest
from diff_factories import (
    build_baseline,
    make_kernel,
    make_layer,
    make_profile,
    scaled,
    with_kernels,
)

from repro.analysis.diff import Delta, diff_profiles
from repro.analysis.diff.model import FINDING_KINDS


# -- Delta semantics ----------------------------------------------------------


def test_delta_ratio_and_pct():
    d = Delta(2.0, 3.0)
    assert d.delta == 1.0
    assert d.ratio == 1.5
    assert abs(d.pct_change - 50.0) < 1e-12


def test_delta_zero_baseline():
    assert Delta(0.0, 0.0).ratio == 1.0
    assert Delta(0.0, 5.0).ratio == float("inf")


# -- self-diff is clean (acceptance criterion) --------------------------------


def test_self_diff_yields_no_findings_above_zero():
    p = build_baseline()
    diff = diff_profiles(p, p)
    assert diff.findings_above(1e-9) == []
    assert diff.speedup == 1.0
    assert diff.regression_fraction == 0.0
    for delta in diff.totals.values():
        assert delta.delta == 0.0
    for layer in diff.layers:
        assert layer.status == "matched"
        assert layer.latency_ms.delta == 0.0
        for kernel in layer.kernels:
            assert kernel.status == "matched"
            assert kernel.latency_ms.delta == 0.0


def test_self_diff_on_real_profile_is_clean(cnn_profile):
    diff = diff_profiles(cnn_profile, cnn_profile)
    assert diff.findings_above(1e-9) == []
    assert diff.regression_fraction == 0.0


# -- regression / improvement classification ----------------------------------


def test_uniform_slowdown_classified_as_regression():
    base = build_baseline()
    diff = diff_profiles(base, scaled(base, 1.3))
    assert abs(diff.regression_fraction - 0.3) < 1e-9
    assert abs(diff.speedup - 1 / 1.3) < 1e-9
    top = diff.findings[0]
    regressions = [f for f in diff.findings if f.kind == "regression"]
    assert len(regressions) == 1 and regressions[0].severity > 0.3
    assert top.severity >= regressions[0].severity
    assert not [f for f in diff.findings if f.kind == "improvement"]


def test_uniform_speedup_classified_as_improvement():
    base = build_baseline()
    diff = diff_profiles(base, scaled(base, 0.5))
    improvements = [f for f in diff.findings if f.kind == "improvement"]
    assert len(improvements) == 1 and improvements[0].severity > 0.5
    assert not [f for f in diff.findings if f.kind == "regression"]
    assert abs(diff.speedup - 2.0) < 1e-9


def test_regression_evidence_names_the_contributing_layers():
    base = build_baseline()
    layers = list(base.layers)
    # One layer regresses hard.
    layers[3] = replace(layers[3], latency_ms=layers[3].latency_ms * 3)
    cand = make_profile(layers)
    diff = diff_profiles(base, cand)
    finding = next(f for f in diff.findings if f.kind == "regression")
    cited = {
        i for ev in finding.candidate_evidence for i in ev.layer_indices
    }
    assert cand.layers[3].index in cited


# -- new hotspot / mix shift --------------------------------------------------


def test_new_kernel_dominating_gpu_time_is_a_new_hotspot():
    base = build_baseline()
    cand = with_kernels(base, 4, [
        make_kernel("wgrad_winograd_surprise", 4, latency_ms=4.0)
    ])
    diff = diff_profiles(base, cand)
    hotspots = [f for f in diff.findings if f.kind == "new-hotspot"]
    assert hotspots, [f.title for f in diff.findings]
    assert "wgrad_winograd_surprise" in hotspots[0].title
    assert hotspots[0].severity > 0.3
    # Per-side resolution: the kernel exists in the candidate only.
    assert any(
        "wgrad_winograd_surprise" in ev.kernel_names
        for ev in hotspots[0].candidate_evidence
    )
    assert not any(
        "wgrad_winograd_surprise" in ev.kernel_names
        for ev in hotspots[0].baseline_evidence
    )


def test_kernel_mix_shift_scores_with_distribution_distance():
    base = build_baseline()
    # Swap every Eigen kernel for library ones: a big mix move.
    cand = replace(base, layers=tuple(
        replace(layer, kernels=(
            make_kernel("volta_sgemm_128x64_nn", layer.index,
                        latency_ms=sum(k.latency_ms for k in layer.kernels)),
        ))
        for layer in base.layers
    ))
    diff = diff_profiles(base, cand)
    mix = next(f for f in diff.findings if f.kind == "kernel-mix-shift")
    assert mix.severity > 0.3
    identical = diff_profiles(base, base)
    same_mix = next(
        f for f in identical.findings if f.kind == "kernel-mix-shift"
    )
    assert same_mix.severity == 0.0


# -- evidence resolves against both sources (acceptance criterion) ------------


def _resolve(evidence, profile):
    layer_indices = {layer.index for layer in profile.layers}
    kernel_names = {k.name for k in profile.kernels}
    for ev in evidence:
        for idx in ev.layer_indices:
            assert idx in layer_indices, (ev.summary, idx)
        for name in ev.kernel_names:
            assert name in kernel_names, (ev.summary, name)


@pytest.mark.parametrize("factor", [0.6, 1.0, 1.8])
def test_every_finding_resolves_per_side(factor):
    base = build_baseline()
    cand = with_kernels(scaled(base, factor), 0, [
        make_kernel("brand_new_kernel", 0, latency_ms=5.0)
    ])
    diff = diff_profiles(base, cand)
    for finding in diff.findings:
        assert finding.kind in FINDING_KINDS
        assert 0.0 <= finding.severity <= 1.0
        _resolve(finding.baseline_evidence, base)
        _resolve(finding.candidate_evidence, cand)


# -- added/removed layers and kernels -----------------------------------------


def test_added_and_removed_layers_read_as_zero_on_the_missing_side():
    base = build_baseline()
    cand_layers = list(base.layers)
    del cand_layers[1]
    cand_layers.append(make_layer(9, "Softmax"))
    cand = make_profile(cand_layers)
    diff = diff_profiles(base, cand)
    removed = diff.layers_with_status("removed")
    added = diff.layers_with_status("added")
    assert [l.name for l in removed] == [base.layers[1].name]
    assert removed[0].candidate_index is None
    assert removed[0].latency_ms.candidate == 0.0
    assert [l.name for l in added] == ["layer9/Softmax"]
    assert added[0].baseline_index is None
    assert added[0].latency_ms.baseline == 0.0


def test_kernel_swap_within_matched_layer():
    base = build_baseline()
    cand = with_kernels(base, 0, [
        make_kernel("volta_scudnn_winograd_128x128", 0, latency_ms=2.0)
    ])
    diff = diff_profiles(base, cand)
    layer0 = diff.layers[0]
    by_status = {k.status: k for k in layer0.kernels}
    assert by_status["removed"].name == "volta_scudnn_128x64_relu"
    assert by_status["removed"].latency_ms.candidate == 0.0
    assert by_status["added"].name == "volta_scudnn_winograd_128x128"
    assert by_status["added"].latency_ms.baseline == 0.0


# -- serialization / rendering ------------------------------------------------


def test_to_dict_is_json_serializable_and_filters_by_severity():
    base = build_baseline()
    diff = diff_profiles(base, scaled(base, 1.4))
    doc = json.loads(json.dumps(diff.to_dict(min_severity=0.0)))
    assert doc["baseline"]["model_name"] == "synthetic"
    assert doc["speedup"] == pytest.approx(1 / 1.4)
    assert {f["kind"] for f in doc["findings"]} <= set(FINDING_KINDS)
    assert len(doc["layers"]) == len(base.layers)
    strict = diff.to_dict(min_severity=0.99)
    assert len(strict["findings"]) <= len(doc["findings"])


def test_render_mentions_headline_and_findings():
    base = build_baseline()
    text = diff_profiles(base, scaled(base, 1.5)).render()
    assert "XSP diff" in text
    assert "slower" in text
    assert "model-level rollups" in text
    assert "regression" in text


def test_real_framework_diff_aligns_and_classifies(cnn_graph, mx_session):
    """End-to-end: TF vs MXNet profiles of the same graph."""
    from repro.core import AnalysisPipeline, XSPSession

    tf = AnalysisPipeline(
        XSPSession("Tesla_V100", "tensorflow_like"), runs_per_level=1
    ).profile_model(cnn_graph, 4)
    mx = AnalysisPipeline(mx_session, runs_per_level=1).profile_model(
        cnn_graph, 4
    )
    diff = diff_profiles(tf, mx)
    assert diff.baseline["framework"] == "tensorflow_like"
    assert diff.candidate["framework"] == "mxnet_like"
    # Most layers correspond across frameworks.
    assert len(diff.layers_with_status("matched")) >= len(mx.layers) // 2
    assert diff.findings  # at least the latency headline + mix shift
    for finding in diff.findings:
        _resolve(finding.baseline_evidence, tf)
        _resolve(finding.candidate_evidence, mx)


def test_zero_latency_baseline_is_an_infinite_regression():
    """A degenerate zero-latency baseline must read as infinitely slower,
    not as parity (speedup and regression_fraction must agree)."""
    base = make_profile([make_layer(0, "Conv2D")], model_latency_ms=0.0)
    cand = make_profile([make_layer(0, "Conv2D")], model_latency_ms=5.0)
    diff = diff_profiles(base, cand)
    assert diff.regression_fraction == float("inf")
    assert diff.speedup == 0.0
    assert "slower" in diff.render()


def test_zero_latency_profile_reports_and_diffs():
    """A bare JSON or an empty trace can carry no model latency: its
    throughput reads 0.0, so the report and the diff both run."""
    from repro.analysis.report import full_report

    profile = make_profile([make_layer(0, "Conv2D")], model_latency_ms=0.0)
    assert profile.throughput == 0.0
    assert "throughput 0.0 inputs/s" in full_report(profile)
    diff = diff_profiles(profile, profile)
    assert diff.to_dict()["totals"]["throughput"]["baseline"] == 0.0
    assert diff.regression_fraction == 0.0
    assert "0.0 inputs/s" in diff.render()

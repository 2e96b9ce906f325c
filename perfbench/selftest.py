"""The benchmark's own tests (kept out of the tier-1 suite's collection).

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, layers, run  # noqa: E402
from perfbench import live_capture  # noqa: E402
from perfbench.artifact_triage import ArtifactTriage  # noqa: E402
from perfbench.live_capture import LiveCapture  # noqa: E402
from perfbench.zoo_campaign import ZooCampaign  # noqa: E402

TF, MX = inputs.FRAMEWORKS


# -- smoke runs: every workload at a tiny size, all checks on --------------


def _smoke(workload, n_ops):
    workload.setup()
    recorder = layers.Recorder()
    layers.install(recorder)
    try:
        traced = workload.measure(n_ops=n_ops, recorder=recorder)
    finally:
        recorder.uninstall()
    plain = workload.measure(n_ops=n_ops)
    for m in (plain, traced):
        assert m.attempted >= n_ops and m.failed == 0, m.errors
        assert m.p50_ms > 0 and m.ops_per_s > 0
    return layers.layer_metrics(recorder.spans(), traced.attempted)


def test_smoke_zoo_campaign(tmp_path):
    points = [inputs.Point(18, 2, "Tesla_V100", TF),
              inputs.Point(53, 1, "Tesla_P100", MX)]
    metrics = _smoke(ZooCampaign(0, tmp_path, points=points), 2)
    for name in ("frameworks.predict_ms", "sim.launch_kernel_ms",
                 "core.profile_ms.M", "core.profile_ms.MLG_metrics",
                 "core.store_put_ms", "tracing.publish_many_ms",
                 "tracing.correlate_ms", "analysis.report_ms"):
        assert metrics[name] > 0, name
    assert metrics["frameworks.predict_calls"] >= 4  # M, M/L, M/L/G, +metrics
    assert metrics["core.store_hit_ratio"] == 0  # fresh store: write-only


def test_smoke_artifact_triage(tmp_path):
    captures = tuple(inputs.Capture(f"m18_{fw}", 18, 1, fw) for fw in (TF, MX))
    app = inputs.AppCapture("app0", (18, 18), 1)
    coords = tuple(inputs.Coord(18, 1, fw) for fw in (TF, MX))
    ops = (
        inputs.TriageOp("diff_store", (coords[0].spec, coords[1].spec)),
        inputs.TriageOp("diff_store", (coords[0].spec,) * 2, gate=True),
        inputs.TriageOp("diff_trace", tuple(c.name for c in captures)),
        inputs.TriageOp("diff_trace", (captures[1].name,) * 2, gate=True),
        inputs.TriageOp("advise_trace", (captures[0].name,)),
        inputs.TriageOp("chrome_app", ("app0",)),
    )
    plan = inputs.TriagePlan(captures, (app,), coords, ops)
    metrics = _smoke(ArtifactTriage(0, tmp_path, plan=plan), len(ops))
    assert metrics["core.store_hit_ratio"] == 1
    for name in ("tracing.load_trace_ms", "tracing.chrome_ms",
                 "analysis.diff_ms", "analysis.load_profile_json_ms",
                 "insights.analyze_ms"):
        assert metrics[name] > 0, name
    assert metrics["frameworks.predict_calls"] == 0  # nothing is profiled


def test_smoke_live_capture(tmp_path, monkeypatch):
    monkeypatch.setattr(live_capture, "CAPTURE_ROWS", 600)
    monkeypatch.setattr(live_capture, "MAX_CAPTURES", 3)
    pool = (inputs.LiveEval(18, 1, "Tesla_V100", TF),
            inputs.LiveEval(53, 2, "Quadro_RTX", MX))
    workload = LiveCapture(0, tmp_path,
                           plan=inputs.LivePlan(pool, (0, 1, 1, 0)))
    metrics = _smoke(workload, 1)
    assert metrics["tracing.publish_rows_rows"] > 0
    assert metrics["insights.live_refreshes"] > 0
    assert 0 < metrics["insights.refreshed_rule_ratio"] <= 1


# -- seed discipline --------------------------------------------------------


@pytest.mark.parametrize("make", [inputs.campaign_points, inputs.triage_plan,
                                  inputs.live_plan])
def test_inputs_depend_only_on_the_seed(make):
    assert inputs.dump(make(3)) == inputs.dump(make(3))
    assert inputs.dump(make(3)) != inputs.dump(make(4))


def test_campaign_covers_the_zoo_without_broken_points():
    points = inputs.campaign_points(7)
    assert len({(p.model, p.framework) for p in points}) == len(points) == 107
    assert not any(p.framework == MX and p.model in inputs.MXNET_BROKEN
                   for p in points)
    assert 2 <= len({p.system for p in points}) <= 3


def test_triage_apps_have_the_target_size():
    for app in inputs.triage_plan(5).apps:
        spans = sum({**inputs.TINY_SPANS, **inputs.MID_SPANS,
                     **inputs.BIG_SPANS}[m] for m in app.models)
        assert inputs.APP_SPANS <= spans <= inputs.APP_SPANS + 1000


# -- self time --------------------------------------------------------------


def test_self_time_on_a_hand_built_span_tree():
    #            0: root [0, 100]
    #   1: a [10, 40]      2: b [30, 60]     3: late [90, 120]
    #   4: a1 [15, 20]
    start = [0, 10, 30, 90, 15]
    end = [100, 40, 60, 120, 20]
    parent = [-1, 0, 0, 0, 1]
    # root: children cover [10, 60] (a and b overlap) and [90, 100]
    # (late is clipped to the root) -> 100 - 50 - 10.
    assert layers.self_times(start, end, parent) == [40, 25, 30, 30, 5]


def test_recorder_links_nested_calls_and_counts():
    recorder = layers.Recorder()

    def leaf(x):
        return x

    leaf = recorder.wrap("leaf", leaf,
                         after=lambda a, k, r, s: {"n": r})

    def outer():
        return leaf(1) + leaf(2)

    outer = recorder.wrap("outer", outer)
    assert outer() == 3
    recorder.enabled = False
    outer()
    spans = recorder.spans()
    assert [spans.names[c] for c in spans.name] == ["outer", "leaf", "leaf"]
    assert spans.parent == [-1, 0, 0]
    assert [spans.attrs[i]["n"] for i in (1, 2)] == [1, 2]


# -- the metric declaration -------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code_and_the_caps():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert 2 <= len(spec["workloads"]) <= 8
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER)
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    assert all(UNIT.match(m["unit"]) for m in spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])


def test_run_refuses_a_tree_without_the_program(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "zoo_campaign", "--seed", "1",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""

"""Grid-vs-grid diffing: axis detection, point matching, OOM set diffs."""

import pytest
from diff_factories import build_baseline, scaled

from repro.analysis.diff.campaign import diff_campaigns
from repro.campaign import Campaign, CampaignPoint, CampaignResult

MODEL = 53  # DeepLabv3_MobileNet_v2: small enough for fast grids


def _result(points_to_profiles, oom=()):
    result = CampaignResult()
    result.profiles = dict(points_to_profiles)
    result.out_of_memory = list(oom)
    return result


def _grid(framework, batches=(1, 2), factor=1.0):
    base = build_baseline()
    return {
        CampaignPoint(MODEL, b, framework=framework): scaled(base, factor)
        for b in batches
    }


def test_framework_axis_detected_and_points_matched():
    baseline = _result(_grid("tensorflow_like"))
    candidate = _result(_grid("mxnet_like", factor=1.2))
    diff = baseline.diff(candidate)
    assert diff.axis == {
        "framework": ("tensorflow_like", "mxnet_like")
    }
    assert len(diff.diffs) == 2
    assert diff.only_in_baseline == () and diff.only_in_candidate == ()
    for point_diff in diff.diffs.values():
        assert point_diff.regression_fraction == pytest.approx(0.2)
    assert diff.max_regression_fraction == pytest.approx(0.2)
    assert diff.mean_speedup == pytest.approx(1 / 1.2)
    assert len(diff.regressed(beyond=0.1)) == 2


def test_non_identical_point_sets_reported_not_dropped():
    baseline = _result(_grid("tensorflow_like", batches=(1, 2, 4)))
    candidate = _result(_grid("mxnet_like", batches=(2, 4, 8)))
    diff = baseline.diff(candidate)
    assert len(diff.diffs) == 2  # batches 2 and 4
    assert len(diff.only_in_baseline) == 1  # batch 1
    assert "batch=1" in diff.only_in_baseline[0]
    assert len(diff.only_in_candidate) == 1  # batch 8
    assert "batch=8" in diff.only_in_candidate[0]


def test_oom_set_differences():
    tf = _grid("tensorflow_like", batches=(1, 2, 4))
    mx = _grid("mxnet_like", batches=(1, 2))
    baseline = _result(
        tf, oom=[CampaignPoint(MODEL, 8, framework="tensorflow_like")]
    )
    candidate = _result(
        mx,
        oom=[
            CampaignPoint(MODEL, 4, framework="mxnet_like"),
            CampaignPoint(MODEL, 8, framework="mxnet_like"),
        ],
    )
    diff = baseline.diff(candidate)
    assert len(diff.diffs) == 2
    assert len(diff.newly_oom) == 1 and "batch=4" in diff.newly_oom[0]
    assert diff.resolved_oom == ()
    assert len(diff.oom_in_both) == 1 and "batch=8" in diff.oom_in_both[0]
    # The reverse direction flips newly/resolved.
    reverse = candidate.diff(baseline)
    assert len(reverse.resolved_oom) == 1
    assert reverse.newly_oom == ()


def test_same_coordinates_keep_full_key():
    baseline = _result(_grid("tensorflow_like"))
    candidate = _result(_grid("tensorflow_like", factor=0.8))
    diff = baseline.diff(candidate)
    assert diff.axis == {}
    assert len(diff.diffs) == 2
    assert all(d.speedup == pytest.approx(1.25) for d in diff.diffs.values())


def test_empty_side_rejected():
    with pytest.raises(ValueError, match="both sides"):
        diff_campaigns({}, _grid("tensorflow_like"))


def test_render_and_to_dict():
    baseline = _result(_grid("tensorflow_like"))
    candidate = _result(
        _grid("mxnet_like", batches=(1,), factor=1.5),
        oom=[CampaignPoint(MODEL, 2, framework="mxnet_like")],
    )
    diff = baseline.diff(candidate)
    text = diff.render()
    assert "Campaign diff" in text
    assert "framework: tensorflow_like -> mxnet_like" in text
    assert "newly OOM in candidate" in text
    doc = diff.to_dict()
    assert doc["axis"]["framework"] == ["tensorflow_like", "mxnet_like"]
    assert len(doc["points"]) == 1
    assert doc["newly_oom"]


def test_real_campaign_grids_diff_end_to_end(tmp_path):
    """Two real grids (cold + warm via the store) diff point-for-point."""
    store = tmp_path / "store"
    tf = Campaign(store=store).add_grid([MODEL], [1, 2]).run()
    mx = (
        Campaign(store=store)
        .add_grid([MODEL], [1, 2], frameworks=("mxnet_like",))
        .run()
    )
    diff = tf.diff(mx)
    assert diff.axis == {"framework": ("tensorflow_like", "mxnet_like")}
    assert len(diff.diffs) == 2
    for label, point_diff in diff.diffs.items():
        assert label.startswith("model=DeepLabv3")
        assert point_diff.findings
        assert point_diff.baseline["framework"] == "tensorflow_like"
        assert point_diff.candidate["framework"] == "mxnet_like"

"""Comparison module tests."""

import pytest

from repro.analysis.compare import (
    compare_frameworks,
    compare_systems,
    comparison_table,
)
from repro.core import AnalysisPipeline, XSPSession


@pytest.fixture(scope="module")
def two_framework_profiles(cnn_graph):
    out = []
    for framework in ("tensorflow_like", "mxnet_like"):
        pipeline = AnalysisPipeline(
            XSPSession("Tesla_V100", framework), runs_per_level=1
        )
        out.append(pipeline.profile_model(cnn_graph, 4))
    return out


def test_comparison_table_rows(two_framework_profiles):
    table = comparison_table(
        {p.framework: p for p in two_framework_profiles}
    )
    assert len(table) == 2
    assert {r["label"] for r in table} == {"tensorflow_like", "mxnet_like"}
    for row in table:
        assert row["latency_ms"] > 0 and 0 < row["gpu_pct"] <= 100


def test_compare_frameworks_validates_dimensions(two_framework_profiles):
    table = compare_frameworks(two_framework_profiles)
    assert "Framework comparison" in table.title


def test_compare_rejects_mixed_dimensions(two_framework_profiles, cnn_graph):
    other_batch = AnalysisPipeline(
        XSPSession("Tesla_V100", "tensorflow_like"), runs_per_level=1
    ).profile_model(cnn_graph, 8)
    with pytest.raises(ValueError, match="differ in batch"):
        compare_frameworks([two_framework_profiles[0], other_batch])
    with pytest.raises(ValueError, match="differ in framework"):
        compare_systems(two_framework_profiles)


def test_compare_systems(cnn_graph):
    profiles = [
        AnalysisPipeline(XSPSession(system, "tensorflow_like"),
                         runs_per_level=1).profile_model(cnn_graph, 4)
        for system in ("Tesla_V100", "Tesla_M60")
    ]
    table = compare_systems(profiles)
    rows = {r["label"]: r for r in table}
    assert rows["Tesla_V100"]["latency_ms"] < rows["Tesla_M60"]["latency_ms"]


def test_empty_comparison_rejected():
    with pytest.raises(ValueError):
        comparison_table({})

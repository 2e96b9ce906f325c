"""A1-A7 + stage analysis tests (layer-level analyses)."""

import pytest

from repro.analysis import (
    convolution_latency_percentage,
    latency_by_type,
    latency_stage,
    layer_information_table,
    layer_latency_series,
    layer_memory_series,
    layer_type_distribution,
    memory_by_type,
    model_information_table,
    optimal_batch_size,
    throughputs,
    top_layers,
)
from repro.analysis.stages import stage_of, stage_summary, stage_totals


def test_a1_throughput_and_optimal_batch():
    latencies = {1: 10.0, 2: 11.0, 4: 13.0, 8: 20.0, 16: 39.0}
    tput = throughputs(latencies)
    assert tput[1] == pytest.approx(100.0)
    # 8 -> 16 gains 400->410 (2.5% < 5%): optimal is 8.
    assert optimal_batch_size(latencies) == 8
    table = model_information_table(latencies, model_name="m", system="s")
    optimal_rows = [r for r in table if r["optimal"]]
    assert [r["batch"] for r in optimal_rows] == [8]


def test_a1_optimal_batch_requires_data():
    with pytest.raises(ValueError):
        optimal_batch_size({})
    # Monotone-improving curve: optimum is the largest measured batch.
    assert optimal_batch_size({1: 10.0, 2: 12.0}) == 2


def test_a2_layer_table(cnn_profile):
    table = layer_information_table(cnn_profile)
    assert len(table) == len(cnn_profile.layers)
    assert top_layers(cnn_profile, 3).rows[0]["latency_ms"] >= \
        top_layers(cnn_profile, 3).rows[1]["latency_ms"]
    assert "\u27e8" in table.rows[0]["shape"]  # paper-style shape brackets


def test_a3_a4_series_in_execution_order(cnn_profile):
    lat = layer_latency_series(cnn_profile)
    mem = layer_memory_series(cnn_profile)
    assert [i for i, _ in lat] == [l.index for l in cnn_profile.layers]
    assert len(mem) == len(lat)
    assert all(v >= 0 for _, v in lat)


def test_a5_distribution_sums_to_100(cnn_profile):
    table = layer_type_distribution(cnn_profile)
    assert sum(r["percentage"] for r in table) == pytest.approx(100.0)
    assert sum(r["count"] for r in table) == len(cnn_profile.layers)


def test_a6_latency_by_type_conv_dominates(cnn_profile):
    table = latency_by_type(cnn_profile)
    assert table.rows[0]["layer_type"] == "Conv2D"
    assert sum(r["percentage"] for r in table) == pytest.approx(100.0)


def test_a6_conv_percentage(cnn_profile):
    pct = convolution_latency_percentage(cnn_profile)
    assert 10 < pct < 95


def test_a7_memory_by_type(cnn_profile):
    table = memory_by_type(cnn_profile)
    assert sum(r["percentage"] for r in table) == pytest.approx(100.0)


def test_stage_of_partition():
    assert stage_of(0, 9) == "B"
    assert stage_of(4, 9) == "M"
    assert stage_of(8, 9) == "E"
    with pytest.raises(ValueError):
        stage_of(0, 0)


def test_stage_totals_cover_everything(cnn_profile):
    totals = stage_totals(cnn_profile, cnn_profile.layer_table.latency_ms)
    assert sum(totals.values()) == pytest.approx(
        sum(l.latency_ms for l in cnn_profile.layers)
    )


def test_stage_summary_labels(cnn_profile):
    summary = stage_summary(cnn_profile)
    assert set(summary) == {"latency", "memory", "flops", "access"}
    assert all(v in ("B", "M", "E") for v in summary.values())
    assert latency_stage(cnn_profile) == summary["latency"]

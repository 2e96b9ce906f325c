"""AnalysisPipeline / ModelProfile tests."""

import pytest


def test_profile_layer_structure(cnn_profile):
    assert cnn_profile.batch == 8
    assert cnn_profile.layers
    indices = [layer.index for layer in cnn_profile.layers]
    assert indices == sorted(indices)
    types = {layer.layer_type for layer in cnn_profile.layers}
    assert "Conv2D" in types and "Mul" in types


def test_every_compute_layer_has_kernels(cnn_profile):
    for layer in cnn_profile.layers:
        if layer.layer_type in ("Conv2D", "Relu", "Mul", "Add", "AddN"):
            assert layer.kernels, f"{layer.name} has no kernels"


def test_layer_invariants(cnn_profile):
    for layer in cnn_profile.layers:
        assert layer.latency_ms >= 0
        assert layer.kernel_latency_ms <= layer.latency_ms * 1.05
        assert layer.non_gpu_latency_ms >= 0
        if layer.kernels:
            assert 0 <= layer.achieved_occupancy <= 1


def test_model_aggregates_consistent(cnn_profile):
    assert cnn_profile.kernel_latency_ms == pytest.approx(
        sum(l.kernel_latency_ms for l in cnn_profile.layers)
    )
    assert cnn_profile.flops == pytest.approx(
        sum(k.flops for k in cnn_profile.kernels)
    )
    assert 0 < cnn_profile.gpu_latency_percentage <= 100


def test_kernel_profile_derived_metrics(cnn_profile):
    kernel = max(cnn_profile.kernels, key=lambda k: k.flops)
    assert kernel.arithmetic_intensity > 0
    assert kernel.arithmetic_throughput_tflops > 0
    assert kernel.dram_bytes == kernel.dram_read_bytes + kernel.dram_write_bytes


def test_overheads_recorded(cnn_profile):
    assert set(cnn_profile.overheads) == {"M/L", "M/L/G"}


def test_throughput(cnn_profile):
    assert cnn_profile.throughput == pytest.approx(
        8 / (cnn_profile.model_latency_ms / 1e3)
    )


def test_resnet50_profile_matches_paper_shape(resnet50_profile):
    """Golden-shape assertions for the paper's running example."""
    p = resnet50_profile
    assert 200 <= p.model_latency_ms <= 400  # paper: 275 ms
    assert 85 <= p.gpu_latency_percentage <= 97  # paper: 92.4%
    assert 225 <= len(p.layers) <= 240  # paper: 234
    assert not p.memory_bound  # compute-bound at optimal batch
    assert 100 <= p.overheads["M/L"] <= 220  # paper: 157 ms
    top = max(p.layers, key=lambda l: l.latency_ms)
    assert top.layer_type == "Conv2D"
    assert top.alloc_mb == pytest.approx(25.7, rel=0.01)  # Table II


def test_sweep_contains_all_batches(resnet50_sweep):
    assert sorted(resnet50_sweep) == [1, 4, 16, 32, 64, 256]
    for batch, profile in resnet50_sweep.items():
        assert profile.batch == batch


def test_merge_applies_statistic_per_position(cnn_graph):
    """Layer latencies merge M/L views, kernel latencies metric-run views."""
    from repro.core import AnalysisPipeline, XSPSession
    from repro.core.pipeline import profile_from_trace

    pipeline = AnalysisPipeline(
        XSPSession("Tesla_V100"), runs_per_level=3, statistic=max
    )
    leveled = pipeline.experiment.run(cnn_graph, 4)
    profile = pipeline.merge(leveled)

    layer_views = [
        profile_from_trace(run.trace).layers for run in leveled.runs_at("M/L")
    ]
    assert len(layer_views) == 3
    assert [l.name for l in profile.layers] == [l.name for l in layer_views[0]]
    for pos, layer in enumerate(profile.layers):
        assert layer.latency_ms == max(v[pos].latency_ms for v in layer_views)
    # The repetitions jitter, so the statistic has something to choose.
    assert any(
        len({v[pos].latency_ms for v in layer_views}) > 1
        for pos in range(len(profile.layers))
    )

    kernel_views = [
        {(k.layer_index, k.position): k.latency_ms
         for k in profile_from_trace(run.trace).kernels}
        for run in leveled.runs_at("M/L/G+metrics")
    ]
    assert len(kernel_views) == 3
    assert len(profile.kernels) == len(kernel_views[0])
    for kernel in profile.kernels:
        key = (kernel.layer_index, kernel.position)
        assert kernel.latency_ms == max(v[key] for v in kernel_views)

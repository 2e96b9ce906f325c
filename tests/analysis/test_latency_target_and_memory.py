"""A1 latency-target rule + peak device memory tests."""

import pytest

from repro.analysis import optimal_batch_for_latency_target
from repro.core import M, ProfilingConfig, XSPSession


def test_latency_target_selects_largest_feasible():
    latencies = {1: 5.0, 2: 8.0, 4: 14.0, 8: 26.0}
    assert optimal_batch_for_latency_target(latencies, 15.0) == 4
    assert optimal_batch_for_latency_target(latencies, 5.0) == 1
    assert optimal_batch_for_latency_target(latencies, 100.0) == 8


def test_latency_target_unreachable():
    assert optimal_batch_for_latency_target({1: 10.0}, 9.0) is None


def test_latency_target_validation():
    with pytest.raises(ValueError):
        optimal_batch_for_latency_target({1: 1.0}, 0.0)


def test_latency_target_on_measured_curve(v100_session, cnn_graph):
    from repro.workloads import throughput_curve

    curve = throughput_curve(v100_session, cnn_graph, [1, 4, 16], runs=1)
    target = curve.latencies_ms[4] * 1.01
    assert optimal_batch_for_latency_target(curve.latencies_ms, target) == 4


def test_peak_device_memory_reported(v100_session, cnn_graph):
    run = v100_session.profile(cnn_graph, 8, ProfilingConfig(levels=M,
                                                             metrics=()))
    assert run.prediction.peak_device_memory_bytes > 0
    bigger = v100_session.profile(cnn_graph, 64, ProfilingConfig(levels=M,
                                                                 metrics=()))
    assert (bigger.prediction.peak_device_memory_bytes
            > run.prediction.peak_device_memory_bytes)


def test_peak_memory_below_device_capacity(v100_session, cnn_graph):
    run = v100_session.profile(cnn_graph, 8, ProfilingConfig(levels=M,
                                                             metrics=()))
    assert (run.prediction.peak_device_memory_bytes
            < v100_session.gpu.dram_gb * 1024 * 1e6)

"""Workload helper tests (throughput curves, OOM handling)."""

import pytest

from repro.models import ModelBuilder
from repro.sim.memory import OutOfDeviceMemoryError
from repro.workloads import (
    ThroughputCurve,
    measure_latency,
    throughput_curve,
)


def test_measure_latency_repeatable(v100_session, cnn_graph):
    a = measure_latency(v100_session, cnn_graph, 4, runs=2)
    b = measure_latency(v100_session, cnn_graph, 4, runs=2)
    assert a == b  # deterministic virtual time + fixed run indices


def test_throughput_curve_basic(v100_session, cnn_graph):
    curve = throughput_curve(v100_session, cnn_graph, [1, 4, 16], runs=1)
    assert set(curve.latencies_ms) == {1, 4, 16}
    assert curve.online_latency_ms == curve.latencies_ms[1]
    assert curve.max_throughput >= curve.throughputs[1]


def test_online_latency_requires_batch_one():
    curve = ThroughputCurve("m", "s", "f", {4: 10.0})
    with pytest.raises(KeyError, match="batch size 1"):
        curve.online_latency_ms


def _huge_model():
    b = ModelBuilder("huge")
    x = b.input(64, 1024, 1024)  # 256 MB per image at fp32
    x = b.conv_bn_relu(x, 64, 3)
    x = b.conv_bn_relu(x, 64, 3)
    x = b.classifier(x, 10)
    return b.build()


def test_oom_truncates_sweep(v100_session):
    graph = _huge_model()
    curve = throughput_curve(v100_session, graph, [1, 2, 64, 256], runs=1)
    assert 1 in curve.latencies_ms
    assert 256 not in curve.latencies_ms  # 16 GB device cannot fit it


def test_oom_at_batch_one_raises():
    from repro.core import XSPSession

    session = XSPSession("Tesla_M60")  # 8 GB device
    b = ModelBuilder("way_too_big")
    x = b.input(256, 4096, 2048)  # 8.6 GB input alone
    x = b.conv_bn_relu(x, 256, 3)
    x = b.classifier(x, 10)
    with pytest.raises(OutOfDeviceMemoryError):
        throughput_curve(session, b.build(), [1], runs=1)

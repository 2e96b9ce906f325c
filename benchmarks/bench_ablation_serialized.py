"""Ablation: serialized (CUDA_LAUNCH_BLOCKING=1) vs asynchronous profiling.

The serialized re-run XSP uses to disambiguate parallel events costs
extra wall time; this bench quantifies the cost and checks the traces
stay semantically identical (same kernels, same layer attribution).
"""

from __future__ import annotations

import pytest

from repro.core import MLG, ProfilingConfig, XSPSession
from repro.core.pipeline import profile_from_trace
from repro.models import get_model

BATCH = 16


@pytest.fixture(scope="module")
def session():
    return XSPSession("Tesla_V100", "tensorflow_like")


@pytest.fixture(scope="module")
def graph():
    return get_model(7).graph


def test_async_profiling(benchmark, session, graph):
    config = ProfilingConfig(levels=MLG, metrics=())
    run = benchmark.pedantic(
        session.profile, args=(graph, BATCH, config), rounds=1, iterations=1
    )
    assert not run.correlation.needs_serialized_rerun


def test_serialized_profiling_same_attribution(benchmark, session, graph):
    config = ProfilingConfig(levels=MLG, metrics=(), serialized=True)
    run = benchmark.pedantic(
        session.profile, args=(graph, BATCH, config), rounds=1, iterations=1
    )
    async_run = session.profile(
        graph, BATCH, ProfilingConfig(levels=MLG, metrics=())
    )
    serialized_kernels = {
        (k.name, k.layer_index) for k in profile_from_trace(run.trace).kernels
    }
    async_kernels = {
        (k.name, k.layer_index)
        for k in profile_from_trace(async_run.trace).kernels
    }
    assert serialized_kernels == async_kernels

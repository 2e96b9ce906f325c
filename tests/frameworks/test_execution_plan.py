"""Execution-plan replay: each (compiled model, batch, GPU) is lowered to
kernels once per distinct emission input, and its clean kernel durations
are computed once per run index and distinct duration input, however many
leveled runs replay it."""

from __future__ import annotations

import pytest

import repro.frameworks.base as base
import repro.sim.cuda as cuda
from repro.core import (
    AnalysisPipeline,
    LeveledExperiment,
    ProfilingConfig,
    XSPSession,
)
from repro.core.session import FRAMEWORKS
from repro.frameworks import MXSim, TFSim
from repro.sim import CudaRuntime, VirtualClock, eigen, get_system
from repro.tracing import SpanKind


@pytest.fixture()
def counts(monkeypatch):
    """Counters on kernel emission (per framework) and duration model."""
    calls = {"emit": 0, "duration": 0}
    for cls in (TFSim, MXSim):
        original = cls.emit_kernels

        def emit(self, layer, shapes, _original=original):
            calls["emit"] += 1
            return _original(self, layer, shapes)

        monkeypatch.setattr(cls, "emit_kernels", emit)
    duration = base.kernel_duration_ns

    def counted_duration(spec, gpu, *, run_index=0):
        calls["duration"] += 1
        return duration(spec, gpu, run_index=run_index)

    # Patched where it is looked up: plan building and direct launches.
    monkeypatch.setattr(base, "kernel_duration_ns", counted_duration)
    monkeypatch.setattr(cuda, "kernel_duration_ns", counted_duration)
    return calls


def _duration_inputs(spec) -> tuple:
    """What ``kernel_duration_ns`` reads of a spec, flops and DRAM bytes
    as its jitter key formats them."""
    return (spec.name, spec.klass, f"{spec.flops}", f"{spec.dram_bytes}",
            spec.blocks, spec.threads_per_block, spec.eff_scale)


def _emission_inputs(layer, shapes) -> tuple:
    """What ``emit_kernels`` reads of a layer (the GPU is the plan's)."""
    return (layer.op, repr(layer.attrs), shapes[layer.source].dims,
            len(layer.inputs),
            tuple(shapes[name].dims for name in layer.source_inputs))


def _plan_size(framework: str, graph, batch: int) -> tuple[int, int, int]:
    """(distinct emission inputs, kernels, distinct duration inputs) of
    one execution plan."""
    fw = FRAMEWORKS[framework](
        CudaRuntime(get_system("Tesla_V100"), VirtualClock())
    )
    model = fw.load(graph)
    plan = fw.execution_plan(model, batch)
    shapes = model.shapes(batch)
    emitting = [step for step in plan.steps if step.kernels is not None]
    specs = [spec for step in emitting for spec in step.kernels]
    emissions = {_emission_inputs(step.layer, shapes) for step in emitting}
    assert len(emissions) < len(emitting)  # the graph repeats layers
    return (len(emissions), len(specs),
            len(set(map(_duration_inputs, specs))))


@pytest.mark.parametrize("framework", ["tensorflow_like", "mxnet_like"])
def test_ladder_emits_each_layer_once(cnn_graph, framework, counts):
    """One ``emit_kernels`` call per distinct emission input, not per
    layer, and none again for the later rungs."""
    emissions, kernels, distinct = _plan_size(framework, cnn_graph, 2)
    assert distinct < kernels  # the graph repeats kernels
    counts.update(emit=0, duration=0)
    session = XSPSession("Tesla_V100", framework)
    AnalysisPipeline(session, runs_per_level=1).profile_model(cnn_graph, 2)
    # Four ladder runs (M, M/L, M/L/G, M/L/G+metrics), one plan.
    assert counts == {"emit": emissions, "duration": distinct}


@pytest.mark.parametrize("framework", ["tensorflow_like", "mxnet_like"])
def test_ladder_launches_each_plan_kernel_once_per_rung(
    cnn_graph, framework, monkeypatch
):
    """``CudaRuntime.launch_kernel`` runs once per plan kernel per rung:
    perfbench's ``sim.kernel_launches`` counts exactly these calls."""
    _, kernels, _ = _plan_size(framework, cnn_graph, 2)
    launched = []
    launch = CudaRuntime.launch_kernel

    def counted(self, spec, stream_id=0, clean_ns=None, layer_index=None):
        launched.append(spec)
        return launch(self, spec, stream_id, clean_ns, layer_index)

    monkeypatch.setattr(CudaRuntime, "launch_kernel", counted)
    session = XSPSession("Tesla_V100", framework)
    result = LeveledExperiment(session, runs_per_level=1).run(cnn_graph, 2)
    runs = [run for rung in result.runs.values() for run in rung]
    assert len(runs) == 4 and not any(r.was_serialized_retry for r in runs)
    assert len(launched) == 4 * kernels


def test_durations_computed_once_per_run_index(cnn_graph, counts):
    emissions, _, distinct = _plan_size("tensorflow_like", cnn_graph, 2)
    counts.update(emit=0, duration=0)
    session = XSPSession("Tesla_V100", "tensorflow_like")
    AnalysisPipeline(session, runs_per_level=3).profile_model(cnn_graph, 2)
    assert counts == {"emit": emissions, "duration": 3 * distinct}


@pytest.mark.parametrize("run_index", [0, 1, 5])
def test_shared_durations_equal_each_kernel_computed_alone(cnn_graph,
                                                           run_index):
    fw = TFSim(CudaRuntime(get_system("Tesla_V100"), VirtualClock()))
    plan = fw.execution_plan(fw.load(cnn_graph), 2)
    assert plan.clean_durations(run_index) == tuple(
        tuple(base.kernel_duration_ns(spec, plan.gpu, run_index=run_index)
              for spec in step.kernels or ())
        for step in plan.steps
    )


def test_negative_zero_work_is_its_own_duration(cnn_graph, counts):
    """``-0.0`` and ``0.0`` flops are equal but seed different jitter, so
    they are computed apart and each equals its own direct computation."""
    from dataclasses import replace

    fw = TFSim(CudaRuntime(get_system("Tesla_V100"), VirtualClock()))
    plan = fw.execution_plan(fw.load(cnn_graph), 2)
    gpu = plan.gpu
    spec = eigen.max_kernel(1 << 20)
    plain, negative = replace(spec, flops=0.0), replace(spec, flops=-0.0)
    step = next(s for s in plan.steps if s.kernels)
    counts.update(duration=0)
    (durations,) = base.ExecutionPlan(
        gpu, (step._replace(kernels=(plain, negative, plain)),), 0
    ).clean_durations(3)
    assert counts["duration"] == 2
    assert durations == tuple(base.kernel_duration_ns(s, gpu, run_index=3)
                              for s in (plain, negative, plain))


def _executions(run) -> list[tuple[str, int]]:
    """(name, duration) of each kernel execution, in correlation-id order."""
    return [(s.name, s.duration_ns) for s in sorted(
        (s for s in run.trace.spans if s.kind is SpanKind.EXECUTION),
        key=lambda s: s.correlation_id)]


def test_serialized_run_replays_the_same_plan(cnn_graph, counts):
    emissions, _, distinct = _plan_size("tensorflow_like", cnn_graph, 2)
    counts.update(emit=0, duration=0)
    session = XSPSession("Tesla_V100", "tensorflow_like")
    plain = session.profile(cnn_graph, 2, ProfilingConfig(metrics=()))
    retry = session.profile(
        cnn_graph, 2, ProfilingConfig(metrics=(), serialized=True)
    )
    assert counts == {"emit": emissions, "duration": distinct}
    # CUDA_LAUNCH_BLOCKING changes the timeline, not the kernels.
    assert _executions(retry) == _executions(plain)
    assert retry.n_kernels == plain.n_kernels == len(_executions(plain))


def test_new_batch_or_gpu_builds_its_own_plan(cnn_graph, counts):
    emissions, _, _ = _plan_size("tensorflow_like", cnn_graph, 2)
    counts.update(emit=0, duration=0)
    v100 = TFSim(CudaRuntime(get_system("Tesla_V100"), VirtualClock()))
    p100 = TFSim(CudaRuntime(get_system("Tesla_P100"), VirtualClock()))
    model = v100.load(cnn_graph)
    v100.predict(model, 2)
    v100.predict(model, 2)
    assert counts["emit"] == emissions
    v100.predict(model, 4)
    assert counts["emit"] == 2 * emissions
    p100.predict(model, 2)
    assert counts["emit"] == 3 * emissions
    plan = v100.execution_plan(model, 2)
    assert v100.execution_plan(model, 2) is plan
    assert p100.execution_plan(model, 2) is not plan
    assert p100.execution_plan(model, 2).gpu.name == "Tesla_P100"


def test_direct_launch_computes_its_duration(counts):
    rt = CudaRuntime(get_system("Tesla_V100"), VirtualClock())
    spec = eigen.max_kernel(1 << 20)
    computed = rt.launch_kernel(spec)
    given = rt.launch_kernel(spec, clean_ns=computed.duration_ns)
    assert counts["duration"] == 1
    assert given.duration_ns == computed.duration_ns

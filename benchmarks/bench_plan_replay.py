"""Cold leveled replay: one compiled model profiled on every rung.

A campaign point profiles one compiled model four times (M, M/L, M/L/G,
M/L/G+metrics), each rung replaying the same execution plan.  Timed: a
cold ``LeveledExperiment.run`` (a fresh session, ``runs_per_level=1``,
so compilation and the plan build are included) of MLPerf ResNet50
(model 7) and Mask R-CNN Inception-ResNet-v2 (model 48) under both
frameworks.  Asserted for each rung:

* ``CudaRuntime.launch_kernel`` ran once per plan kernel, and
* the trace holds the three model-level spans, one span per layer from
  M/L on, and from M/L/G on a launch/execution pair per kernel plus one
  span per memory copy.

A second case times a cold plan build alone (``Framework.load`` plus
``execution_plan``) and asserts that ``emit_kernels`` ran once per
distinct emission input (op, attributes, output shape, input count and
input shapes), not once per layer.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import LeveledExperiment, XSPSession
from repro.models import get_model
from repro.sim import CudaRuntime
from repro.tracing import Level

BATCH = 4
MODEL_SPANS = 3  # input_preprocess, predict, output_postprocess


def _cold_ladder(graph, framework: str):
    session = XSPSession("Tesla_V100", framework)
    return LeveledExperiment(session, runs_per_level=1).run(graph, BATCH)


def _expected_rungs(graph, framework: str) -> dict[str, tuple[int, dict]]:
    """Per rung, the kernel launches and the spans per level, from the
    model's plan."""
    session = XSPSession("Tesla_V100", framework)
    fw = session.framework_cls(CudaRuntime(session.gpu))
    plan = fw.execution_plan(fw.load(graph), BATCH)
    kernels = sum(len(step.kernels or ()) for step in plan.steps)
    copies = (sum(step.kernels is None for step in plan.steps)
              + len(graph.outputs()))
    model = {Level.MODEL: MODEL_SPANS}
    layered = {**model, Level.LAYER: len(plan.steps)}
    gpu = {**layered, Level.GPU_KERNEL: 2 * kernels + copies}
    return {"M": (kernels, model), "M/L": (kernels, layered),
            "M/L/G": (kernels, gpu), "M/L/G+metrics": (kernels, gpu)}


@pytest.mark.parametrize("framework", ["tensorflow_like", "mxnet_like"])
@pytest.mark.parametrize("model_id", [7, 48])
def test_plan_replay_cold_ladder(benchmark, monkeypatch, model_id, framework):
    graph = get_model(model_id).graph
    result = benchmark.pedantic(
        _cold_ladder, args=(graph, framework), rounds=3, iterations=1
    )
    expected = _expected_rungs(graph, framework)

    # Untimed: the same ladder again, counting launches per rung.
    launches = []
    launch = CudaRuntime.launch_kernel

    def counted(self, spec, stream_id=0, clean_ns=None, layer_index=None):
        launches[-1] += 1
        return launch(self, spec, stream_id, clean_ns, layer_index)

    monkeypatch.setattr(CudaRuntime, "launch_kernel", counted)
    profile = XSPSession.profile

    def profile_counting(self, *args, **kwargs):
        launches.append(0)
        return profile(self, *args, **kwargs)

    monkeypatch.setattr(XSPSession, "profile", profile_counting)
    _cold_ladder(graph, framework)

    assert list(result.runs) == list(expected)
    for (label, (kernels, spans)), counted_launches in zip(
        expected.items(), launches
    ):
        [run] = result.runs[label]
        assert not run.was_serialized_retry
        assert counted_launches == kernels, label
        assert Counter(span.level for span in run.trace) == spans, label


def _emission_inputs(layer, shapes) -> tuple:
    return (layer.op, repr(layer.attrs), shapes[layer.source].dims,
            len(layer.inputs),
            tuple(shapes[name].dims for name in layer.source_inputs))


@pytest.mark.parametrize("framework", ["tensorflow_like", "mxnet_like"])
@pytest.mark.parametrize("model_id", [7, 48])
def test_plan_build_emits_once_per_distinct_layer(benchmark, monkeypatch,
                                                  model_id, framework):
    graph = get_model(model_id).graph
    session = XSPSession("Tesla_V100", framework)
    fw = session.framework_cls(CudaRuntime(session.gpu))

    def cold_plan():
        model = fw.load(graph)
        return model, fw.execution_plan(model, BATCH)

    benchmark.pedantic(cold_plan, rounds=5, iterations=1)

    # Untimed: the same build again, counting emissions.
    emitted = []
    emit = type(fw).emit_kernels

    def counted(self, layer, shapes):
        emitted.append(layer)
        return emit(self, layer, shapes)

    monkeypatch.setattr(type(fw), "emit_kernels", counted)
    model, plan = cold_plan()
    shapes = model.shapes(BATCH)
    distinct = {_emission_inputs(step.layer, shapes) for step in plan.steps
                if step.kernels is not None}
    assert len(emitted) == len(distinct) < len(plan.steps) / 2

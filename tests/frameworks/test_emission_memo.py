"""The plan's emission memo: layers that agree on every input of
``emit_kernels`` share one spec tuple, and each shared tuple holds exactly
what a fresh emission of each of its layers returns."""

from __future__ import annotations

import pytest

from repro.core.session import FRAMEWORKS
from repro.models import list_models
from repro.sim import CudaRuntime, VirtualClock, get_system

CONFIGS = [("Tesla_V100", 1), ("Quadro_RTX", 8)]


def _emission_inputs(layer, shapes) -> tuple:
    """Everything ``emit_kernels`` reads of a layer (the GPU and the
    framework are the plan's)."""
    return (layer.op, repr(layer.attrs), shapes[layer.source].dims,
            len(layer.inputs),
            tuple(shapes[name].dims for name in layer.source_inputs))


@pytest.mark.parametrize("system,batch", CONFIGS)
@pytest.mark.parametrize("framework", ["tensorflow_like", "mxnet_like"])
def test_shared_emission_equals_a_fresh_one_per_layer(framework, system,
                                                      batch):
    fw = FRAMEWORKS[framework](CudaRuntime(get_system(system), VirtualClock()))
    for entry in list_models():
        model = fw.load(entry.graph)
        shapes = model.shapes(batch)
        plan = fw.execution_plan(model, batch)
        shared: dict[tuple, tuple] = {}
        for step in plan.steps:
            layer = step.layer
            if layer.op == "Data":
                assert step.kernels is None
                continue
            fresh = fw.emit_kernels(layer, shapes)
            # Field for field, tags included; repr tells -0.0 from 0.0.
            assert list(step.kernels) == fresh, (entry.model_id, layer.name)
            assert list(map(repr, step.kernels)) == list(map(repr, fresh))
            key = _emission_inputs(layer, shapes)
            assert shared.setdefault(key, step.kernels) is step.kernels
        # One tuple per key (every empty emission is the one ``()``).
        tuples = {id(step.kernels) for step in plan.steps if step.kernels}
        assert len(tuples) == sum(map(bool, shared.values())), entry.model_id


def test_unhashable_attributes_share_an_emission():
    """The attribute key is the attributes' repr, so list-valued
    attributes (which ``_pair`` accepts) memoize like tuples do."""
    from repro.frameworks import Graph

    graph = Graph("list_attrs")
    graph.add_op("input", "Input", shape=(8, 16, 16))
    previous = "input"
    for i in range(3):
        graph.add_op(f"conv{i}", "Conv2D", [previous], filters=8,
                     kernel=[3, 3], strides=[1, 1], padding="same")
        previous = f"conv{i}"
    graph.validate()
    fw = FRAMEWORKS["mxnet_like"](
        CudaRuntime(get_system("Tesla_V100"), VirtualClock()))
    model = fw.load(graph)
    steps = [s for s in fw.execution_plan(model, 2).steps if s.kernels]
    assert len(steps) == 3
    assert steps[1].kernels is steps[2].kernels
    assert list(steps[1].kernels) == fw.emit_kernels(steps[1].layer,
                                                     model.shapes(2))

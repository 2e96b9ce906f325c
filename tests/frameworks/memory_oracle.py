"""Per-layer device-memory walk: the reference for ``DeviceMemoryPool.replay``.

``Framework.predict`` settles a prediction's device memory with one
``DeviceMemoryPool.replay`` of its execution plan.  Before that, predict
allocated the weights, then each layer's output with
``DeviceMemoryPool.alloc`` as the layer ran, freed an output after its
last consumer and freed the rest at the end.  :func:`walk` repeats that
sequence of ``alloc``/``free`` calls from the plan's steps alone (it does
not use ``ExecutionPlan.allocations``); :func:`install` makes every
``predict`` walk instead of replay.

Imported by the tests as a plain ``memory_oracle`` module.
"""

from __future__ import annotations

from repro.frameworks.base import ExecutionPlan, Framework
from repro.sim.memory import Allocation, DeviceMemoryPool


def walk(pool: DeviceMemoryPool, plan: ExecutionPlan) -> None:
    """One prediction's allocations and frees, one pool call each."""
    weights = (pool.alloc(plan.weight_bytes, tag="__weights__")
               if plan.weight_bytes else None)
    remaining: dict[str, int] = {}
    for step in plan.steps:
        for inp in step.layer.inputs:
            remaining[inp] = remaining.get(inp, 0) + 1
    live: dict[str, Allocation] = {}
    for step in plan.steps:
        layer = step.layer
        if step.out_bytes:
            live[layer.name] = pool.alloc(step.out_bytes, tag=layer.name)
        for inp in layer.inputs:
            remaining[inp] -= 1
            if remaining[inp] == 0 and inp in live:
                pool.free(live.pop(inp))
    for allocation in live.values():
        pool.free(allocation)
    if weights is not None:
        pool.free(weights)


def install(monkeypatch) -> None:
    """Make ``Framework.predict`` walk its plan instead of replaying it."""
    predict = Framework.predict

    def walked(self, model, batch, options=None):
        walk(self.runtime.memory, self.execution_plan(model, batch))
        return predict(self, model, batch, options)

    monkeypatch.setattr(Framework, "predict", walked)
    monkeypatch.setattr(
        DeviceMemoryPool, "replay", lambda self, allocations, peak_bytes: None
    )

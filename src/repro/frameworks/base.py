"""Framework ABC and the shared layer-execution engine.

A framework compiles a model graph into a layer plan (framework-specific
rewrites, see :mod:`repro.frameworks.optimizer`) and executes it against
the simulated CUDA runtime: per layer, it pays host-side scheduling cost,
holds the output tensor until its last consumer, launches the layer's
kernels, and waits for the stream.  The difference between a layer's
latency and its kernels' device time is the paper's "non-GPU latency"
(Fig. 8).

Leveled experimentation (Sec. III-C) runs the same compiled model on the
same GPU and batch once per rung; only the attached profilers differ.
Everything that does not depend on the profilers — each layer's output
bytes, host cost in integer nanoseconds and emitted kernel specs, the
prediction's peak device memory, and the kernels' clean durations per run
index — is therefore computed once into an :class:`ExecutionPlan` cached
on the :class:`CompiledModel`, and every :meth:`Framework.predict`
replays that plan: one memory-pool replay, then the layers on the
virtual clock.

The built-in layer profiler mirrors the real frameworks': enabling it adds
per-layer overhead to the prediction latency while the recorded per-layer
latencies stay accurate (the basis of leveled experimentation, Fig. 2);
output is produced in each framework's *native* format
(:mod:`repro.frameworks.profiler_format`).
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple

from repro.frameworks.graph import Graph
from repro.frameworks.optimizer import PlanLayer, RewriteRules, build_plan
from repro.frameworks.profiler_format import LayerRecord
from repro.frameworks.shapes import (
    TensorShape,
    infer_shapes,
    model_weight_bytes,
)
from repro.sim.calibration import (
    HOST_CALIBRATION,
    PROFILING_CALIBRATION,
    HostCalibration,
)
from repro.sim.cuda import CudaRuntime
from repro.sim.hardware import GPUSpec
from repro.sim.kernels import KernelSpec, kernel_duration_ns


@dataclass
class RunOptions:
    """TensorFlow-style per-call options (RunOptions.TraceLevel analog)."""

    trace_level: str = "NONE"  # "NONE" | "FULL"

    @property
    def layer_profiling(self) -> bool:
        return self.trace_level == "FULL"


@dataclass
class PredictionResult:
    """Outcome of one model-prediction call."""

    batch: int
    start_ns: int
    end_ns: int
    output_shapes: dict[str, tuple[int, ...]]
    #: Framework-native profile dump (None unless layer profiling was on).
    native_profile: dict[str, Any] | None = None
    #: High-water device memory during the prediction (weights + live
    #: activations under liveness-based freeing).
    peak_device_memory_bytes: int = 0

    @property
    def latency_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def latency_ms(self) -> float:
        return self.latency_ns / 1e6


class PlanStep(NamedTuple):
    """One layer of an :class:`ExecutionPlan`: all but the per-run state."""

    layer: PlanLayer
    out_shape: TensorShape
    #: Output tensor bytes allocated for the layer (0: no allocation).
    out_bytes: int
    #: Host-side scheduling cost in whole nanoseconds (floor applied).
    host_ns: int
    #: The layer's kernels as emitted, with no layer tag (each launch
    #: carries ``layer.index``); ``None`` for the ``Data`` layer, which
    #: copies the input to the device instead.  Shared by every replay (and
    #: by like layers), so consumers must only read their tags.
    kernels: tuple[KernelSpec, ...] | None


@dataclass
class ExecutionPlan:
    """One (compiled model, batch, GPU) execution, ready to replay."""

    gpu: GPUSpec
    steps: tuple[PlanStep, ...]
    #: Model weights, allocated before the first layer, freed at the end.
    weight_bytes: int
    #: Highest live device bytes over :meth:`allocations`.
    peak_memory_bytes: int = field(init=False)
    _durations: dict[int, tuple[tuple[int, ...], ...]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        self.peak_memory_bytes = max(
            (live + nbytes for live, nbytes, _ in self.allocations()), default=0
        )

    def allocations(self) -> Iterator[tuple[int, int, str]]:
        """The prediction's allocations, weights first, as ``(live_before,
        nbytes, tag)`` for ``DeviceMemoryPool.replay``: an output dies with
        its last consumer, the rest at the end.  Walked, not stored."""
        live = self.weight_bytes
        if live:
            yield 0, live, "__weights__"
        remaining = Counter(
            inp for step in self.steps for inp in step.layer.inputs
        )
        allocated: dict[str, int] = {}
        for step in self.steps:
            layer = step.layer
            if step.out_bytes:
                yield live, step.out_bytes, layer.name
                allocated[layer.name] = step.out_bytes
                live += step.out_bytes
            for inp in layer.inputs:
                remaining[inp] -= 1
                if remaining[inp] == 0 and inp in allocated:
                    live -= allocated.pop(inp)

    def clean_durations(self, run_index: int) -> tuple[tuple[int, ...], ...]:
        """Per step, its kernels' clean device durations for one run.

        The run-to-run jitter is seeded by ``run_index``, so durations are
        cached per run index.  Within a run, each shared spec tuple is
        timed once, and each distinct duration is computed once: specs
        can also be equal without being shared.  That key is every input
        :func:`kernel_duration_ns` reads, with flops and DRAM bytes as the
        jitter formats them (``-0.0`` and ``0.0`` are equal keys but
        different jitter seeds).
        """
        durations = self._durations.get(run_index)
        if durations is None:
            gpu = self.gpu
            computed: dict[tuple, int] = {}

            def duration(spec: KernelSpec) -> int:
                key = (spec.name, spec.klass, f"{spec.flops}",
                       f"{spec.dram_bytes}", spec.blocks,
                       spec.threads_per_block, spec.eff_scale)
                ns = computed.get(key)
                if ns is None:
                    ns = computed[key] = kernel_duration_ns(
                        spec, gpu, run_index=run_index
                    )
                return ns

            # By id: the steps hold every shared tuple for the plan's life.
            timed = {id(step.kernels): step.kernels for step in self.steps}
            for key, kernels in timed.items():
                timed[key] = tuple(map(duration, kernels or ()))
            durations = self._durations[run_index] = tuple(
                timed[id(step.kernels)] for step in self.steps)
        return durations


@dataclass
class CompiledModel:
    """A graph compiled for one framework."""

    graph: Graph
    plan: list[PlanLayer]
    framework: str
    weight_bytes: int
    _shape_cache: dict[int, dict[str, TensorShape]] = field(default_factory=dict)
    _execution_plans: dict[tuple[int, GPUSpec], ExecutionPlan] = field(
        default_factory=dict
    )

    def shapes(self, batch: int) -> dict[str, TensorShape]:
        if batch not in self._shape_cache:
            self._shape_cache[batch] = infer_shapes(self.graph, batch)
        return self._shape_cache[batch]

    @property
    def n_layers(self) -> int:
        return len(self.plan)


class Framework(abc.ABC):
    """Base class for the TensorFlow-like and MXNet-like simulators."""

    #: Registry key; must match a HOST_CALIBRATION / profiler-format entry.
    name: str = ""
    display_name: str = ""
    #: Extra host cost per layer for host-interactive ops, as
    #: (fixed_us, per_output_MB_us, per_image_us).  `Where` dominates
    #: object-detection model latency through host round-trips whose work
    #: scales with the number of images' boxes (paper Sec. IV-A).
    HOST_EXTRA_US: dict[str, tuple[float, float, float]] = {
        "Where": (40.0, 80.0, 95.0),
        "Transpose": (8.0, 0.0, 0.0),
        "Concat": (6.0, 0.0, 0.0),
        "Reshape": (-2.0, 0.0, 0.0),  # pure metadata update
    }

    def __init__(self, runtime: CudaRuntime) -> None:
        if not self.name:
            raise TypeError("Framework subclasses must set a registry name")
        self.runtime = runtime
        self.host: HostCalibration = HOST_CALIBRATION[self.name]
        self._profiler_state = False  # MXNet-style toggle

    # -- framework-specific hooks ------------------------------------------
    @property
    @abc.abstractmethod
    def rewrite_rules(self) -> RewriteRules:
        """Compilation rules (BN decomposition, type labels, naming)."""

    @abc.abstractmethod
    def emit_kernels(
        self, layer: PlanLayer, shapes: dict[str, TensorShape]
    ) -> list[Any]:
        """GPU kernels launched by one layer (list of KernelSpec).  Reads
        only its op, attrs, input count and output and input shapes: a
        plan emits once per distinct combination and shares the result."""

    @abc.abstractmethod
    def serialize_profile(self, records: list[LayerRecord]) -> dict[str, Any]:
        """Dump layer records in the framework's native profiler format."""

    # -- profiler control -----------------------------------------------------
    def set_profiler_state(self, active: bool) -> None:
        """MXNet-style global profiler toggle (MXSetProfilerState analog)."""
        self._profiler_state = active

    def _profiling_active(self, options: RunOptions | None) -> bool:
        if options is not None and options.layer_profiling:
            return True
        return self._profiler_state

    # -- compilation -------------------------------------------------------------
    def load(self, graph: Graph) -> CompiledModel:
        """Compile a model graph for execution on this framework."""
        return CompiledModel(
            graph=graph,
            plan=build_plan(graph, self.rewrite_rules),
            framework=self.name,
            weight_bytes=model_weight_bytes(graph),
        )

    # -- prediction ----------------------------------------------------------------
    def predict(
        self,
        model: CompiledModel,
        batch: int,
        options: RunOptions | None = None,
    ) -> PredictionResult:
        """Run one inference; all time accounting is virtual nanoseconds."""
        if model.framework != self.name:
            raise ValueError(
                f"model compiled for {model.framework!r} cannot run on {self.name!r}"
            )
        rt = self.runtime
        clock = rt.clock
        profiling = self._profiling_active(options)
        shapes = model.shapes(batch)
        plan = self.execution_plan(model, batch)

        start_ns = clock.now()
        clock.advance_us(self.host.run_fixed_us + self.host.per_image_us * batch)
        rt.memory.replay(plan.allocations(), plan.peak_memory_bytes)

        records: list[LayerRecord] = []
        layer_ns = int(round(PROFILING_CALIBRATION.framework_layer_us * 1e3))
        durations = plan.clean_durations(rt.run_index)

        for step, clean_ns in zip(plan.steps, durations):
            layer_start = clock.now_ns
            clock.now_ns += step.host_ns
            if step.kernels is None:
                # Feeding the input: host-to-device copy of the input tensor.
                rt.memcpy(step.out_shape.nbytes, kind="h2d")
            else:
                index = step.layer.index
                for spec, spec_ns in zip(step.kernels, clean_ns):
                    rt.launch_kernel(spec, clean_ns=spec_ns, layer_index=index)
                rt.stream_synchronize()
            if profiling:
                layer = step.layer
                records.append(LayerRecord(
                    layer.index, layer.name, layer.layer_type,
                    step.out_shape.dims, layer_start, clock.now_ns,
                    step.out_bytes,
                ))
                # The profiler's own record-keeping cost lands *after* the
                # measured region: layer latencies stay accurate while the
                # prediction latency inflates (Fig. 2).
                clock.now_ns += layer_ns

        # Copy the model output(s) back to the host.
        for out in model.graph.outputs():
            rt.memcpy(shapes[out.name].nbytes, kind="d2h")

        end_ns = clock.now()
        return PredictionResult(
            batch=batch,
            start_ns=start_ns,
            end_ns=end_ns,
            output_shapes={
                out.name: shapes[out.name].dims for out in model.graph.outputs()
            },
            native_profile=self.serialize_profile(records) if profiling else None,
            peak_device_memory_bytes=rt.memory.peak_bytes,
        )

    # -- execution plans ---------------------------------------------------------
    def execution_plan(self, model: CompiledModel, batch: int) -> ExecutionPlan:
        """The replayable plan of ``model`` at ``batch`` on this runtime's
        GPU, built on first use and cached on the compiled model."""
        gpu = self.runtime.gpu
        key = (batch, gpu)
        plan = model._execution_plans.get(key)
        if plan is None:
            plan = model._execution_plans[key] = ExecutionPlan(
                gpu=gpu,
                steps=self._plan_steps(model, batch),
                weight_bytes=model.weight_bytes,
            )
        return plan

    def _plan_steps(
        self, model: CompiledModel, batch: int
    ) -> tuple[PlanStep, ...]:
        shapes = model.shapes(batch)
        host = self.host
        # Memo local to this build (GPU and framework fixed): layers equal in
        # all emit_kernels and the host cost read share one step body.
        bodies: dict[tuple, tuple[int, int, tuple | None]] = {}
        steps = []
        for layer in model.plan:
            out_shape = shapes[layer.source]
            key = (layer.op, layer.attrs_key, out_shape.dims, len(layer.inputs),
                   *[shapes[name].dims for name in layer.source_inputs])
            body = bodies.get(key)
            if body is None:
                out_bytes = 0 if layer.op == "Reshape" else out_shape.nbytes
                extra_fixed, extra_per_mb, extra_per_image = (
                    self.HOST_EXTRA_US.get(layer.op, (0.0, 0.0, 0.0)))
                out_mb = out_bytes / 1e6
                host_us = (host.layer_fixed_us + host.layer_per_mb_us * out_mb
                           + extra_fixed + extra_per_mb * out_mb
                           + extra_per_image * out_shape.batch)
                body = bodies[key] = (
                    out_bytes, int(round(max(0.5, host_us) * 1e3)),
                    None if layer.op == "Data"
                    else tuple(self.emit_kernels(layer, shapes)))
            steps.append(PlanStep(layer, out_shape, *body))
        return tuple(steps)

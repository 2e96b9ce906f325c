"""XSPSession: one across-stack-profiled model evaluation.

A session binds a system (GPU), a framework, and a tracing server.  Each
:meth:`XSPSession.profile` call:

1. builds a fresh simulated runtime (clock, CUDA, CUPTI) for the chosen
   system, honouring ``CUDA_LAUNCH_BLOCKING`` when a serialized run is
   requested,
2. enables exactly the tracers the :class:`ProfilingConfig` asks for
   (model / layer / GPU-kernel levels, GPU metric list),
3. runs the model-level pipeline — input pre-processing, model
   prediction, output post-processing — with ``startSpan``/``finishSpan``
   around each step,
4. converts the framework profiler's native output and CUPTI's records
   into spans and publishes everything to the tracing server,
5. reconstructs the across-stack hierarchy offline (interval containment
   + launch/execution correlation) and, if parallel events made parentage
   ambiguous, automatically re-runs serialized — the paper's prescribed
   remedy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.api import start_span
from repro.core.levels import MLG, ProfilingLevelSet
from repro.core.library_level import LibraryTracer
from repro.core.profilers import GpuTracer, LayerTracer, ModelTracer
from repro.frameworks.base import Framework, PredictionResult, RunOptions
from repro.frameworks.graph import Graph
from repro.frameworks.mxnet_like import MXSim
from repro.frameworks.tensorflow_like import TFSim
from repro.sim.clock import VirtualClock
from repro.sim.cuda import CudaRuntime
from repro.sim.cupti import SUPPORTED_METRICS, Cupti
from repro.sim.hardware import GPUSpec, get_system
from repro.tracing.correlation import (
    CorrelationResult,
    correlate_launch_execution,
    reconstruct_parents,
)
from repro.tracing.server import TracingServer
from repro.tracing.span import Level, Span, new_span_id
from repro.tracing.trace import Trace

FRAMEWORKS: dict[str, type[Framework]] = {
    "tensorflow_like": TFSim,
    "tensorflow": TFSim,
    "tf": TFSim,
    "mxnet_like": MXSim,
    "mxnet": MXSim,
    "mx": MXSim,
}

#: Host cost of the model-level pre/post-processing steps (fixed + per image).
_PREPROCESS_US = (55.0, 2.0)
_POSTPROCESS_US = (18.0, 0.5)


@dataclass(frozen=True)
class ProfilingConfig:
    """What to capture during one profiled evaluation."""

    levels: ProfilingLevelSet = MLG
    metrics: tuple[str, ...] = SUPPORTED_METRICS
    #: Serialize GPU work (CUDA_LAUNCH_BLOCKING=1).
    serialized: bool = False
    #: Automatically re-run serialized when parentage is ambiguous.
    auto_serialize: bool = True
    #: Run index; seeds the simulator's deterministic run-to-run jitter.
    run_index: int = 0

    @property
    def layer_profiling(self) -> bool:
        return Level.LAYER in self.levels

    @property
    def gpu_profiling(self) -> bool:
        return Level.GPU_KERNEL in self.levels


@dataclass
class ProfiledRun:
    """Everything captured for one evaluation."""

    trace: Trace
    config: ProfilingConfig
    batch: int
    system: str
    framework: str
    prediction: PredictionResult
    predict_span: Span
    correlation: CorrelationResult
    #: Launch/execution pairs correlated in the trace.
    n_kernels: int = 0
    #: True when this run is the serialized retry of an ambiguous run.
    was_serialized_retry: bool = False

    @property
    def model_latency_ms(self) -> float:
        return self.predict_span.duration_ms

    def summary(self) -> dict[str, Any]:
        return {
            "system": self.system,
            "framework": self.framework,
            "batch": self.batch,
            "levels": self.config.levels.label,
            "model_latency_ms": self.model_latency_ms,
            "n_spans": len(self.trace),
            "n_kernels": self.n_kernels,
            "ambiguous": self.correlation.needs_serialized_rerun,
        }


class XSPSession:
    """Profiling sessions for one (system, framework) pair."""

    def __init__(
        self,
        system: str | GPUSpec = "Tesla_V100",
        framework: str = "tensorflow_like",
        server: TracingServer | None = None,
    ) -> None:
        self.gpu = system if isinstance(system, GPUSpec) else get_system(system)
        try:
            self.framework_cls = FRAMEWORKS[framework]
        except KeyError:
            raise KeyError(
                f"unknown framework {framework!r}; valid: {sorted(FRAMEWORKS)}"
            ) from None
        self.server = server if server is not None else TracingServer()
        self._model_cache: dict[tuple[str, int], Any] = {}

    # -- main entry -----------------------------------------------------------
    def profile(
        self,
        graph: Graph,
        batch: int,
        config: ProfilingConfig | None = None,
    ) -> ProfiledRun:
        """Run one across-stack-profiled evaluation of ``graph``."""
        config = config or ProfilingConfig()
        run = self._run_once(graph, batch, config)
        if (
            run.correlation.needs_serialized_rerun
            and config.auto_serialize
            and not config.serialized
        ):
            serialized = replace(config, serialized=True)
            retry = self._run_once(graph, batch, serialized)
            retry.was_serialized_retry = True
            return retry
        return run

    # -- internals ----------------------------------------------------------------
    def _run_once(
        self, graph: Graph, batch: int, config: ProfilingConfig
    ) -> ProfiledRun:
        clock = VirtualClock()
        environment = {"CUDA_LAUNCH_BLOCKING": "1"} if config.serialized else {}
        runtime = CudaRuntime(
            self.gpu, clock, environment=environment, run_index=config.run_index
        )
        cupti: Cupti | None = None
        if config.gpu_profiling:
            cupti = Cupti(runtime)
            cupti.enable_callbacks()
            cupti.enable_activities()
            if config.metrics:
                cupti.enable_metrics(config.metrics)

        # Sec. III-E extension: cuDNN/cuBLAS API-call spans between the
        # layer and GPU-kernel levels, folded from the kernel launches.
        library = (LibraryTracer(self.server, runtime)
                   if Level.LIBRARY in config.levels else None)

        framework = self.framework_cls(runtime)
        model = self._compiled(framework, graph)

        trace_id = self.server.begin_trace(
            system=self.gpu.name,
            framework=framework.name,
            model=graph.name,
            batch=batch,
            levels=config.levels.label,
        )
        model_tracer = ModelTracer(self.server)
        try:
            # -- the model-level evaluation pipeline ---------------------------
            pre = start_span(model_tracer, clock.now, "input_preprocess", batch=batch)
            clock.advance_us(_PREPROCESS_US[0] + _PREPROCESS_US[1] * batch)
            pre.finish()

            scope = start_span(model_tracer, clock.now, "predict", batch=batch)
            prediction = self._predict(framework, model, batch, config)
            predict_span = scope.finish()

            post = start_span(model_tracer, clock.now, "output_postprocess", batch=batch)
            clock.advance_us(_POSTPROCESS_US[0] + _POSTPROCESS_US[1] * batch)
            post.finish()

            # -- offline conversion of the other profilers' outputs ---------
            if config.layer_profiling and prediction.native_profile is not None:
                LayerTracer(self.server).convert(
                    prediction.native_profile, framework.name,
                    predict_span.span_id,
                )
            if cupti is not None:
                GpuTracer(self.server).convert(*cupti.flush())
            if library is not None:
                library.convert()
        finally:
            # Also when the run fails (e.g. out of device memory): the
            # server keeps no open trace.
            trace = self.server.end_trace(trace_id)
        correlation = reconstruct_parents(trace, strict=False)
        n_kernels = correlate_launch_execution(trace)

        return ProfiledRun(
            trace=trace,
            config=config,
            batch=batch,
            system=self.gpu.name,
            framework=framework.name,
            prediction=prediction,
            predict_span=predict_span,
            correlation=correlation,
            n_kernels=n_kernels,
        )

    def profile_application(
        self,
        workload: list[tuple[Graph, int]],
        *,
        name: str = "application",
        config: ProfilingConfig | None = None,
        trace_id: int | None = None,
    ) -> tuple[Trace, list[ProfiledRun]]:
        """Profile a whole application: several model evaluations in one trace.

        Sec. III-E: "Adding an application profiling level above the model
        level to measure whole applications (possibly ... using more than
        one ML model) is naturally supported by XSP as it uses distributed
        tracing."  Each evaluation runs normally (own runtime/clock); as
        soon as it finishes, its rows are re-published time-shifted onto
        the application timeline via the server's streaming row path —
        a live ``TracingServer.stream`` cursor (e.g. ``repro advise
        --live``) sees every evaluation land while later ones are still
        running.  The single APPLICATION-level span is published last,
        once the timeline's extent is known (its id is pre-allocated so
        model roots can reference it throughout).

        ``trace_id`` lets a caller pre-open the destination trace (and
        attach stream cursors to it) before this method runs; by default
        a fresh trace is begun here.
        """
        if not workload:
            raise ValueError("application workload is empty")
        config = config or ProfilingConfig()
        runs: list[ProfiledRun] = []
        # The capture names its system and framework so it analyses
        # offline like any single-evaluation trace.
        metadata = dict(
            application=name,
            system=self.gpu.name,
            framework=self.framework_cls.name,
        )
        if trace_id is None:
            trace_id = self.server.begin_trace(**metadata)
        else:
            self.server.annotate_trace(trace_id, **metadata)
        app_span_id = new_span_id()
        cursor = 0
        # Every evaluation numbers its correlation ids from 1; shifting each
        # past the ids already published keeps one launch per id.
        correlation_base = 0
        for graph, batch in workload:
            run = self.profile(graph, batch, config)
            runs.append(run)
            lo, hi = run.trace.span_extent_ns()
            offset = cursor - lo
            cursor += (hi - lo) + 1_000  # 1 us gap between evaluations
            table = run.trace.table
            self.server.publish_rows(
                trace_id,
                self._shifted_rows(
                    table, offset, correlation_base, app_span_id, graph.name
                ),
            )
            # Rows without a correlation id hold NONE_ID (-1).
            correlation_base += max(0, max(table.correlation_id, default=0))
        app_span = Span(
            name=name,
            start_ns=0,
            end_ns=cursor,
            level=Level.APPLICATION,
            span_id=app_span_id,
            trace_id=trace_id,
            tags={"evaluations": len(workload)},
        )
        self.server.publish(app_span)
        app_trace = self.server.end_trace(trace_id)
        return app_trace, runs

    @staticmethod
    def _shifted_rows(
        table,
        offset: int,
        correlation_offset: int,
        app_span_id: int,
        model_name: str,
    ):
        """One finished evaluation's rows, time-shifted, as publish_rows
        mappings.

        Streams straight from the run's columnar table — no intermediate
        span list; model-level roots are re-parented under the (still open)
        application span, and correlation ids move up by
        ``correlation_offset``.
        """
        model_code = int(Level.MODEL)
        levels = table.level
        for row in range(len(table)):
            parent_id = table.parent_id_of(row)
            if parent_id is None and levels[row] == model_code:
                parent_id = app_span_id
            correlation_id = table.correlation_id_of(row)
            if correlation_id is not None:
                correlation_id += correlation_offset
            yield dict(
                name=table.name_of(row),
                start_ns=table.start_ns[row] + offset,
                end_ns=table.end_ns[row] + offset,
                level=levels[row],
                span_id=table.span_id[row],
                parent_id=parent_id,
                kind=table.kind[row],
                correlation_id=correlation_id,
                tags=dict(table.iter_tags(row), model=model_name),
            )

    def _predict(
        self,
        framework: Framework,
        model: Any,
        batch: int,
        config: ProfilingConfig,
    ) -> PredictionResult:
        """Invoke prediction with the framework's own profiler mechanism."""
        if isinstance(framework, MXSim):
            # MXNet-style: global toggle (MXSetProfilerState analog).
            framework.set_profiler_state(config.layer_profiling)
            return framework.predict(model, batch)
        # TensorFlow-style: per-call RunOptions.TraceLevel.
        options = RunOptions(
            trace_level="FULL" if config.layer_profiling else "NONE"
        )
        return framework.predict(model, batch, options)

    def _compiled(self, framework: Framework, graph: Graph) -> Any:
        key = (framework.name, id(graph))
        if key not in self._model_cache:
            self._model_cache[key] = framework.load(graph)
        return self._model_cache[key]

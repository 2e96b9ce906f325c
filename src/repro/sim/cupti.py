"""CUPTI-like profiling interface.

NVIDIA's CUPTI exposes three capture mechanisms, all reproduced here
against the simulated runtime (paper Sec. III-B):

* **Callback API** — intercepts CUDA API calls; XSP uses it to capture
  ``cudaLaunchKernel`` as the *launch span* of each kernel.
* **Activity API** — asynchronous records of device work (kernel
  executions, memory copies); XSP uses it for *execution spans*.
* **Metric API** — hardware counters (flop counts, DRAM traffic, achieved
  occupancy).  The GPU exposes a limited number of concurrent counters, so
  expensive metrics require the kernel to be *replayed* multiple times;
  this inflates the host-visible run time (the paper reports >100x
  slowdowns for memory metrics) while the reported kernel duration remains
  the clean single-pass one.

Enabling any capture adds per-kernel host overhead, which is exactly the
profiling overhead XSP's leveled experimentation quantifies (Fig. 2).

Like the real activity API, which hands the profiler filled buffers
rather than one object per kernel, captures land in column buffers:
:class:`CallbackBuffer` and :class:`ActivityBuffer` hold one list per
record field, and :meth:`Cupti.flush` returns the filled buffers for the
GPU tracer to read directly.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.sim.calibration import PROFILING_CALIBRATION, ProfilingCalibration
from repro.sim.cuda import CudaRuntime, KernelLaunchRecord, MemcpyRecord
from repro.sim.hardware import GPUSpec
from repro.sim.kernels import KernelSpec, achieved_occupancy

#: Metrics XSP's analyses rely on (paper Sec. III-D3).
SUPPORTED_METRICS = (
    "flop_count_sp",
    "dram_read_bytes",
    "dram_write_bytes",
    "achieved_occupancy",
)

_METRIC_VALUE: dict[str, Callable[[KernelSpec, GPUSpec], float]] = {
    "flop_count_sp": lambda spec, gpu: float(spec.flops),
    "dram_read_bytes": lambda spec, gpu: float(spec.dram_read_bytes),
    "dram_write_bytes": lambda spec, gpu: float(spec.dram_write_bytes),
    "achieved_occupancy": achieved_occupancy,
}

#: The one CUDA API call the callback domain intercepts.
LAUNCH_API = "cudaLaunchKernel"


class _Columns:
    """A capture buffer: one list per record field (``__slots__``)."""

    __slots__ = ()

    def __init__(self) -> None:
        for column in self.__slots__:
            setattr(self, column, [])

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))


class CallbackBuffer(_Columns):
    """Intercepted ``cudaLaunchKernel`` calls (callback API), by column."""

    __slots__ = ("correlation_id", "start_ns", "end_ns")


class ActivityBuffer(_Columns):
    """Device activities (activity API), by column.

    ``kind`` is ``"kernel"`` or ``"memcpy"``.  Activity ``i`` carries the
    metric names ``metric_names[i]`` (a shared tuple); their values are
    the next ``len(metric_names[i])`` entries of the flat
    ``metric_values`` list, in activity order.
    """

    __slots__ = (
        "kind", "name", "correlation_id", "stream_id", "start_ns", "end_ns",
        "grid", "block", "metric_names", "metric_values",
    )


class Cupti:
    """Profiler attached to a :class:`CudaRuntime`.

    Capture domains are opt-in, mirroring how one specifies with nvprof or
    Nsight which CUDA APIs, activities, or metrics to record.
    """

    def __init__(
        self,
        runtime: CudaRuntime,
        calibration: ProfilingCalibration = PROFILING_CALIBRATION,
    ) -> None:
        self.runtime = runtime
        self.calibration = calibration
        self.callbacks = CallbackBuffer()
        self.activities = ActivityBuffer()
        self._callbacks_enabled = False
        self._activities_enabled = False
        self._metrics: tuple[str, ...] = ()
        runtime.on_launch(self._on_launch)
        runtime.on_memcpy(self._on_memcpy)

    # -- enable/disable -------------------------------------------------------
    def enable_callbacks(self) -> None:
        self._callbacks_enabled = True
        self._refresh_runtime_overheads()

    def enable_activities(self) -> None:
        self._activities_enabled = True
        self._refresh_runtime_overheads()

    def enable_metrics(self, metrics: Iterable[str]) -> None:
        metrics = tuple(metrics)
        unknown = [m for m in metrics if m not in SUPPORTED_METRICS]
        if unknown:
            raise ValueError(
                f"unsupported GPU metrics {unknown}; supported: {SUPPORTED_METRICS}"
            )
        self._metrics = metrics
        self._refresh_runtime_overheads()

    def disable(self) -> None:
        """Turn off all capture domains and remove runtime overheads."""
        self._callbacks_enabled = False
        self._activities_enabled = False
        self._metrics = ()
        self._refresh_runtime_overheads()

    def replay_passes(self) -> int:
        """Total kernel replay passes implied by the enabled metrics.

        Counters are scheduled greedily into hardware counter slots; each
        metric contributes its pass count (``calibration.passes_for``), and
        at least one pass always runs (the real execution).
        """
        if not self._metrics:
            return 1
        return max(1, sum(self.calibration.passes_for(m) for m in self._metrics))

    def _refresh_runtime_overheads(self) -> None:
        per_kernel_ns = 0
        if self._callbacks_enabled:
            per_kernel_ns += int(self.calibration.cupti_kernel_us * 500)
        if self._activities_enabled:
            per_kernel_ns += int(self.calibration.cupti_kernel_us * 500)
        self.runtime.profiler_launch_overhead_ns = per_kernel_ns
        self.runtime.profiler_replay_passes = self.replay_passes()
        self.runtime.profiler_pass_overhead_ns = int(
            self.calibration.metric_pass_us * 1e3
        )

    # -- capture ---------------------------------------------------------------
    def _on_launch(self, record: KernelLaunchRecord) -> None:
        if self._callbacks_enabled:
            callbacks = self.callbacks
            callbacks.correlation_id.append(record.correlation_id)
            callbacks.start_ns.append(record.api_start_ns)
            callbacks.end_ns.append(record.api_end_ns)
        if self._activities_enabled:
            spec = record.spec
            gpu = self.runtime.gpu
            self._append_activity(
                "kernel", spec.name, record.correlation_id, record.stream_id,
                record.device_start_ns, record.device_end_ns,
                spec.grid, spec.block, self._metrics,
            )
            self.activities.metric_values.extend(
                [_METRIC_VALUE[m](spec, gpu) for m in self._metrics]
            )

    def _on_memcpy(self, record: MemcpyRecord) -> None:
        """Memory copies are device activities too (CUPTI_ACTIVITY_KIND_MEMCPY)."""
        if not self._activities_enabled:
            return
        self._append_activity(
            "memcpy", f"[CUDA memcpy {record.kind.upper()}]",
            record.correlation_id, 0, record.start_ns, record.end_ns,
            (1, 1, 1), (1, 1, 1), ("bytes",),
        )
        self.activities.metric_values.append(float(record.nbytes))

    def _append_activity(
        self, kind, name, correlation_id, stream_id, start_ns, end_ns,
        grid, block, metric_names,
    ) -> None:
        act = self.activities
        act.kind.append(kind)
        act.name.append(name)
        act.correlation_id.append(correlation_id)
        act.stream_id.append(stream_id)
        act.start_ns.append(start_ns)
        act.end_ns.append(end_ns)
        act.grid.append(grid)
        act.block.append(block)
        act.metric_names.append(metric_names)

    # -- retrieval ----------------------------------------------------------------
    def flush(self) -> tuple[CallbackBuffer, ActivityBuffer]:
        """Return the filled buffers and start new, empty ones."""
        callbacks, self.callbacks = self.callbacks, CallbackBuffer()
        activities, self.activities = self.activities, ActivityBuffer()
        return callbacks, activities

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.sim.calibration import PROFILING_CALIBRATION, ProfilingCalibration
from repro.sim.cuda import CudaRuntime, KernelLaunchRecord, MemcpyRecord
from repro.sim.kernels import achieved_occupancy

#: Metrics XSP's analyses rely on (paper Sec. III-D3).
SUPPORTED_METRICS = (
    "flop_count_sp",
    "dram_read_bytes",
    "dram_write_bytes",
    "achieved_occupancy",
)


@dataclass(frozen=True)
class ApiRecord:
    """One intercepted CUDA API call (callback API)."""

    name: str
    correlation_id: int
    start_ns: int
    end_ns: int


@dataclass(frozen=True)
class ActivityRecord:
    """One device activity (activity API)."""

    kind: str  # "kernel" | "memcpy"
    name: str
    correlation_id: int
    stream_id: int
    start_ns: int
    end_ns: int
    grid: tuple[int, int, int]
    block: tuple[int, int, int]
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


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
        self.api_records: list[ApiRecord] = []
        self.activity_records: list[ActivityRecord] = []
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

    @property
    def enabled(self) -> bool:
        return self._callbacks_enabled or self._activities_enabled or bool(self._metrics)

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
            self.api_records.append(
                ApiRecord(
                    name="cudaLaunchKernel",
                    correlation_id=record.correlation_id,
                    start_ns=record.api_start_ns,
                    end_ns=record.api_end_ns,
                )
            )
        if self._activities_enabled:
            metrics: dict[str, float] = {}
            for m in self._metrics:
                metrics[m] = self._metric_value(record, m)
            self.activity_records.append(
                ActivityRecord(
                    kind="kernel",
                    name=record.spec.name,
                    correlation_id=record.correlation_id,
                    stream_id=record.stream_id,
                    start_ns=record.device_start_ns,
                    end_ns=record.device_end_ns,
                    grid=record.spec.grid,
                    block=record.spec.block,
                    metrics=metrics,
                )
            )

    def _on_memcpy(self, record: MemcpyRecord) -> None:
        """Memory copies are device activities too (CUPTI_ACTIVITY_KIND_MEMCPY)."""
        if not self._activities_enabled:
            return
        self.activity_records.append(
            ActivityRecord(
                kind="memcpy",
                name=f"[CUDA memcpy {record.kind.upper()}]",
                correlation_id=record.correlation_id,
                stream_id=0,
                start_ns=record.start_ns,
                end_ns=record.end_ns,
                grid=(1, 1, 1),
                block=(1, 1, 1),
                metrics={"bytes": float(record.nbytes)},
            )
        )

    def _metric_value(self, record: KernelLaunchRecord, metric: str) -> float:
        spec = record.spec
        if metric == "flop_count_sp":
            return float(spec.flops)
        if metric == "dram_read_bytes":
            return float(spec.dram_read_bytes)
        if metric == "dram_write_bytes":
            return float(spec.dram_write_bytes)
        if metric == "achieved_occupancy":
            return achieved_occupancy(spec, self.runtime.gpu)
        raise ValueError(f"unsupported metric {metric!r}")

    # -- retrieval ----------------------------------------------------------------
    def flush(self) -> tuple[list[ApiRecord], list[ActivityRecord]]:
        """Return and clear all captured records."""
        api, self.api_records = self.api_records, []
        act, self.activity_records = self.activity_records, []
        return api, act

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

Like the real activity API, which hands over filled buffers at
``cuptiActivityFlushAll`` rather than one call per kernel, :class:`Cupti`
reads the runtime's launch log when it flushes (and when a capture domain
changes, so a domain records exactly the launches made while it was on).
It listens to the log only while a domain is on: an idle :class:`Cupti`
leaves no launch in it.
Captures land in column buffers — :class:`CallbackBuffer` and
:class:`ActivityBuffer`, one list per record field — which
:meth:`Cupti.flush` returns for the GPU tracer to read directly.  Memory
copies (a few per prediction) still arrive by callback and are merged
back among the kernels by correlation id.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable

from repro.sim.calibration import PROFILING_CALIBRATION
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

#: Fields of a logged ``KernelLaunchRecord``, by position.
(_CORRELATION_ID, _STREAM_ID, _API_START, _API_END, _DEVICE_START,
 _DEVICE_END) = map(itemgetter, (0, 2, 3, 4, 5, 6))


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
    Nsight which CUDA APIs, activities, or metrics to record.  Reading
    :attr:`callbacks` or :attr:`activities` first moves the launches
    logged since the last read into the buffers.
    """

    def __init__(self, runtime: CudaRuntime) -> None:
        self.runtime = runtime
        self._callbacks = CallbackBuffer()
        self._activities = ActivityBuffer()
        self._callbacks_enabled = False
        self._activities_enabled = False
        self._metrics: tuple[str, ...] = ()
        #: Memcpy activities not yet merged among the kernel activities.
        self._memcpys: list[tuple] = []
        self._read_launches = runtime.launch_reader(listen=False)
        runtime.on_memcpy(self._on_memcpy)

    @property
    def callbacks(self) -> CallbackBuffer:
        self._drain()
        return self._callbacks

    @property
    def activities(self) -> ActivityBuffer:
        self._drain()
        return self._activities

    # -- enable/disable -------------------------------------------------------
    def enable_callbacks(self) -> None:
        self._drain()
        self._callbacks_enabled = True
        self._refresh_runtime_overheads()

    def enable_activities(self) -> None:
        self._drain()
        self._activities_enabled = True
        self._refresh_runtime_overheads()

    def enable_metrics(self, metrics: Iterable[str]) -> None:
        metrics = tuple(metrics)
        unknown = [m for m in metrics if m not in SUPPORTED_METRICS]
        if unknown:
            raise ValueError(
                f"unsupported GPU metrics {unknown}; supported: {SUPPORTED_METRICS}"
            )
        self._drain()
        self._metrics = metrics
        self._refresh_runtime_overheads()

    def disable(self) -> None:
        """Turn off all capture domains and remove runtime overheads."""
        self._drain()
        self._callbacks_enabled = False
        self._activities_enabled = False
        self._metrics = ()
        self._refresh_runtime_overheads()

    def replay_passes(self) -> int:
        """Total kernel replay passes implied by the enabled metrics.

        Counters are scheduled greedily into hardware counter slots; each
        metric contributes its pass count
        (``PROFILING_CALIBRATION.passes_for``), and at least one pass always
        runs (the real execution).
        """
        if not self._metrics:
            return 1
        return max(1, sum(PROFILING_CALIBRATION.passes_for(m)
                          for m in self._metrics))

    def _refresh_runtime_overheads(self) -> None:
        cal = PROFILING_CALIBRATION
        per_kernel_ns = 0
        if self._callbacks_enabled:
            per_kernel_ns += int(cal.cupti_kernel_us * 500)
        if self._activities_enabled:
            per_kernel_ns += int(cal.cupti_kernel_us * 500)
        self.runtime.set_profiler_costs(
            per_kernel_ns,
            self.replay_passes(),
            int(cal.metric_pass_us * 1e3),
        )
        # Nothing new to capture (the caller drained first): this sets
        # whether the log keeps launches for us under the new domains.
        self._drain()

    # -- capture ---------------------------------------------------------------
    def _on_memcpy(self, record: MemcpyRecord) -> None:
        """Memory copies are device activities too (CUPTI_ACTIVITY_KIND_MEMCPY);
        held as one value per ``ActivityBuffer`` column."""
        if self._activities_enabled:
            self._memcpys.append((
                "memcpy", f"[CUDA memcpy {record.kind.upper()}]",
                record.correlation_id, 0, record.start_ns, record.end_ns,
                (1, 1, 1), (1, 1, 1), ("bytes",), float(record.nbytes),
            ))

    def _drain(self) -> None:
        """Capture the launches logged since the last drain under the
        domains enabled now, which were enabled while they ran, and listen
        for more while one of them is on."""
        records = self._read_launches(
            self._callbacks_enabled or self._activities_enabled
        )
        memcpys, self._memcpys = self._memcpys, []
        if records and self._callbacks_enabled:
            callbacks = self._callbacks
            callbacks.correlation_id.extend(map(_CORRELATION_ID, records))
            callbacks.start_ns.extend(map(_API_START, records))
            callbacks.end_ns.extend(map(_API_END, records))
        if not self._activities_enabled:
            return
        # Activities stay in correlation-id order: each memcpy goes
        # between the kernels launched before and after it.
        at, facts = 0, {}
        for memcpy in memcpys:
            cut = bisect_left(records, memcpy[2], at, key=_CORRELATION_ID)
            self._append_kernels(records[at:cut], facts)
            at = cut
            for column, value in zip(ActivityBuffer.__slots__, memcpy):
                getattr(self._activities, column).append(value)
        self._append_kernels(records[at:], facts)

    def _append_kernels(self, records: list[KernelLaunchRecord],
                        facts: dict[int, tuple]) -> None:
        """``facts`` maps ``id(spec)`` to the grid, block and metric values
        of each spec this drain has seen (pure functions of the spec and
        the GPU; the records keep the specs alive): its launches share
        them."""
        if not records:
            return
        act = self._activities
        metrics = self._metrics
        gpu = self.runtime.gpu
        values = [_METRIC_VALUE[m] for m in metrics]
        specs = [record[1] for record in records]
        for key, spec in dict(zip(map(id, specs), specs)).items():
            if key not in facts:
                facts[key] = (spec.grid, spec.block,
                              [value(spec, gpu) for value in values])
        grids, blocks, metric_values = zip(*map(facts.__getitem__,
                                                map(id, specs)))
        act.kind.extend(["kernel"] * len(records))
        act.name.extend([spec.name for spec in specs])
        act.correlation_id.extend(map(_CORRELATION_ID, records))
        act.stream_id.extend(map(_STREAM_ID, records))
        act.start_ns.extend(map(_DEVICE_START, records))
        act.end_ns.extend(map(_DEVICE_END, records))
        act.grid.extend(grids)
        act.block.extend(blocks)
        act.metric_names.extend([metrics] * len(records))
        act.metric_values.extend(chain.from_iterable(metric_values))

    # -- retrieval ----------------------------------------------------------------
    def flush(self) -> tuple[CallbackBuffer, ActivityBuffer]:
        """Return the filled buffers and start new, empty ones."""
        self._drain()
        callbacks, self._callbacks = self._callbacks, CallbackBuffer()
        activities, self._activities = self._activities, ActivityBuffer()
        return callbacks, activities

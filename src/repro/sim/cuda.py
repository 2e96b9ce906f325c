"""CUDA-runtime-like execution API.

Frameworks launch kernels through :class:`CudaRuntime`.  A launch is a
host-side API call (``cudaLaunchKernel``) that costs a few microseconds on
the host clock and enqueues the kernel onto an in-order stream; the kernel
then executes asynchronously on the device timeline.  Synchronization
points advance the host clock to the device completion time.

``CUDA_LAUNCH_BLOCKING=1`` — honoured via the ``environment`` mapping, as
the paper does "by specifying environment variables without modifications
to the application" — makes every launch synchronous, serializing parallel
events so XSP can disambiguate span parentage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.sim.clock import VirtualClock
from repro.sim.hardware import GPUSpec
from repro.sim.kernels import KernelSpec, kernel_duration_ns
from repro.sim.memory import DeviceMemoryPool
from repro.sim.stream import Stream

#: Effective host<->device copy bandwidth (bytes/s). Frameworks use
#: pinned, staged, overlapped transfers; the paper's Fig. 2 shows the
#: batch-256 Data layer taking ~1.2 ms for a ~154 MB input.
_PCIE_BANDWIDTH = 120e9
_MEMCPY_FIXED_NS = 9_000
#: Default host cost of the cudaLaunchKernel API call itself.
_DEFAULT_LAUNCH_NS = 2_600


@dataclass
class KernelLaunchRecord:
    """Everything known about one kernel launch + execution."""

    correlation_id: int
    spec: KernelSpec
    stream_id: int
    #: Host-side cudaLaunchKernel API interval.
    api_start_ns: int
    api_end_ns: int
    #: Device-side execution interval (single clean pass).
    device_start_ns: int
    device_end_ns: int
    #: Device time the stream is actually occupied until (>= device_end_ns
    #: when profiling replays the kernel for metric collection).
    device_busy_until_ns: int

    @property
    def duration_ns(self) -> int:
        return self.device_end_ns - self.device_start_ns


@dataclass
class MemcpyRecord:
    """One host<->device copy."""

    correlation_id: int
    kind: str  # "h2d" | "d2h" | "d2d"
    nbytes: int
    start_ns: int
    end_ns: int


class CudaRuntime:
    """Virtual-time CUDA runtime bound to one GPU and one host clock."""

    def __init__(
        self,
        gpu: GPUSpec,
        clock: VirtualClock | None = None,
        *,
        environment: Mapping[str, str] | None = None,
        run_index: int = 0,
        launch_overhead_ns: int = _DEFAULT_LAUNCH_NS,
    ) -> None:
        self.gpu = gpu
        self.clock = clock if clock is not None else VirtualClock()
        self.environment = dict(environment or {})
        self.run_index = run_index
        self.launch_overhead_ns = launch_overhead_ns
        self.memory = DeviceMemoryPool(capacity_bytes=int(gpu.dram_gb * 2**30))
        self._streams: dict[int, Stream] = {}
        self._correlation = itertools.count(1)
        # Profiler hooks (CUPTI and the library tracer subscribe here);
        # the runtime itself keeps no per-launch record.
        self._launch_callbacks: list[Callable[[KernelLaunchRecord], None]] = []
        self._memcpy_callbacks: list[Callable[[MemcpyRecord], None]] = []
        #: Extra host-side cost per launch added by an attached profiler.
        self.profiler_launch_overhead_ns: int = 0
        #: Kernel replay passes required by metric collection (1 = no replay).
        self.profiler_replay_passes: int = 1
        #: Fixed per-pass device cost added by metric collection.
        self.profiler_pass_overhead_ns: int = 0

    # -- configuration ------------------------------------------------------
    @property
    def launch_blocking(self) -> bool:
        """True when CUDA_LAUNCH_BLOCKING=1 is set in the environment."""
        return self.environment.get("CUDA_LAUNCH_BLOCKING", "0") == "1"

    def stream(self, stream_id: int) -> Stream:
        if stream_id not in self._streams:
            self._streams[stream_id] = Stream(stream_id=stream_id)
        return self._streams[stream_id]

    def on_launch(self, callback: Callable[[KernelLaunchRecord], None]) -> None:
        """Register a profiler callback invoked after every kernel launch."""
        self._launch_callbacks.append(callback)

    def on_memcpy(self, callback: Callable[[MemcpyRecord], None]) -> None:
        """Register a profiler callback invoked after every memcpy."""
        self._memcpy_callbacks.append(callback)

    # -- kernel launch -------------------------------------------------------
    def launch_kernel(
        self, spec: KernelSpec, stream_id: int = 0, clean_ns: int | None = None
    ) -> KernelLaunchRecord:
        """Launch a kernel asynchronously; returns its combined record.

        ``clean_ns`` is the kernel's single-pass device duration on this
        GPU at this run index when the caller already knows it (a
        framework replaying its execution plan); it is computed otherwise.
        """
        stream = self.stream(stream_id)
        api_start = self.clock.now()
        api_end = self.clock.advance(
            self.launch_overhead_ns + self.profiler_launch_overhead_ns
        )
        if clean_ns is None:
            clean_ns = kernel_duration_ns(spec, self.gpu, run_index=self.run_index)
        busy_ns = (
            clean_ns * self.profiler_replay_passes
            + self.profiler_pass_overhead_ns * max(0, self.profiler_replay_passes - 1)
        )
        device_start, device_busy_until = stream.enqueue(api_end, busy_ns)
        record = KernelLaunchRecord(
            correlation_id=next(self._correlation),
            spec=spec,
            stream_id=stream_id,
            api_start_ns=api_start,
            api_end_ns=api_end,
            device_start_ns=device_start,
            device_end_ns=device_start + clean_ns,
            device_busy_until_ns=device_busy_until,
        )
        if self.launch_blocking:
            self.clock.advance_to(device_busy_until)
        for cb in self._launch_callbacks:
            cb(record)
        return record

    # -- synchronization ----------------------------------------------------
    def stream_synchronize(self, stream_id: int = 0) -> int:
        """Block the host until the stream drains; returns host time."""
        stream = self.stream(stream_id)
        return self.clock.advance_to(stream.next_free_ns)

    # -- memory ------------------------------------------------------------
    def memcpy(self, nbytes: int, kind: str = "h2d") -> MemcpyRecord:
        """Blocking host<->device copy over PCIe (d2d uses DRAM bandwidth)."""
        if kind not in ("h2d", "d2h", "d2d"):
            raise ValueError(f"unknown memcpy kind {kind!r}")
        bandwidth = self.gpu.memory_bandwidth if kind == "d2d" else _PCIE_BANDWIDTH
        start = self.clock.now()
        self.clock.advance(_MEMCPY_FIXED_NS + nbytes / bandwidth * 1e9)
        record = MemcpyRecord(
            correlation_id=next(self._correlation),
            kind=kind,
            nbytes=nbytes,
            start_ns=start,
            end_ns=self.clock.now(),
        )
        for cb in self._memcpy_callbacks:
            cb(record)
        return record

    # -- bookkeeping ---------------------------------------------------------
    def reset(self) -> None:
        """Clear all execution state, keeping configuration."""
        for s in self._streams.values():
            s.reset()
        self.memory.free_all()

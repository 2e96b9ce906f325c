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

A launch is timeline arithmetic plus, once a profiler has subscribed
(:meth:`CudaRuntime.launch_reader`), one append to a launch log that
profilers read when they flush, as CUPTI hands over records in buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

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


class KernelLaunchRecord(NamedTuple):
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
    #: Index of the framework layer that launched the kernel, if any.
    layer_index: int | None = None

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
        #: True when CUDA_LAUNCH_BLOCKING=1 is set in the environment.
        self.launch_blocking = (
            self.environment.get("CUDA_LAUNCH_BLOCKING", "0") == "1"
        )
        self.run_index = run_index
        self.launch_overhead_ns = launch_overhead_ns
        self.memory = DeviceMemoryPool(capacity_bytes=int(gpu.dram_gb * 2**30))
        self._streams: dict[int, Stream] = {}
        #: Last correlation id handed out (launches and memcpys share them).
        self._correlation_id = 0
        # The launch log (None while no reader listens) and, per reader,
        # the log index of the first launch it has not read (None while
        # it does not listen).
        self._launch_log: list[KernelLaunchRecord] | None = None
        self._log_cursors: list[int | None] = []
        self._memcpy_callbacks: list[Callable[[MemcpyRecord], None]] = []
        self.set_profiler_costs()

    # -- configuration ------------------------------------------------------
    def set_profiler_costs(
        self, launch_ns: int = 0, replay_passes: int = 1, pass_overhead_ns: int = 0
    ) -> None:
        """Per-kernel costs of an attached profiler: host time per launch,
        replay passes for metric collection and device time per extra pass."""
        self.profiler_launch_overhead_ns = launch_ns
        self.profiler_replay_passes = replay_passes
        self.profiler_pass_overhead_ns = pass_overhead_ns
        self._launch_ns = int(round(self.launch_overhead_ns + launch_ns))
        self._replay_extra_ns = pass_overhead_ns * max(0, replay_passes - 1)

    def stream(self, stream_id: int) -> Stream:
        stream = self._streams.get(stream_id)
        if stream is None:
            stream = self._streams[stream_id] = Stream(stream_id=stream_id)
        return stream

    def launch_reader(
        self, listen: bool = True
    ) -> Callable[[bool], list[KernelLaunchRecord]]:
        """Subscribe to the launch log.  Returns ``read(listen=True)``,
        which gives the launches made since the reader's previous read
        while it listened, and says whether it listens until its next
        read.  Launches are logged only while some reader listens, and
        the log is emptied once every listening reader has read it."""
        cursors = self._log_cursors
        reader = len(cursors)
        cursors.append(None)

        def read(listen: bool = True) -> list[KernelLaunchRecord]:
            log = self._launch_log
            at = cursors[reader]
            records = [] if at is None else log[at:]
            if listen and log is None:
                log = self._launch_log = []
            cursors[reader] = len(log) if listen else None
            listening = [c for c in cursors if c is not None]
            if not listening:
                self._launch_log = None
            elif min(listening) == len(log):
                log.clear()
                cursors[:] = [None if c is None else 0 for c in cursors]
            return records

        read(listen)
        return read

    def on_memcpy(self, callback: Callable[[MemcpyRecord], None]) -> None:
        """Register a profiler callback invoked after every memcpy."""
        self._memcpy_callbacks.append(callback)

    # -- kernel launch -------------------------------------------------------
    def launch_kernel(
        self, spec: KernelSpec, stream_id: int = 0,
        clean_ns: int | None = None, layer_index: int | None = None,
    ) -> KernelLaunchRecord:
        """Launch a kernel asynchronously; returns its combined record.

        ``clean_ns`` is the kernel's single-pass device duration on this
        GPU at this run index when the caller already knows it (a
        framework replaying its execution plan); it is computed otherwise.
        ``layer_index`` names the launching framework layer.
        """
        stream = self.stream(stream_id)
        clock = self.clock
        api_start = clock.now_ns
        api_end = clock.now_ns = api_start + self._launch_ns
        if clean_ns is None:
            clean_ns = kernel_duration_ns(spec, self.gpu, run_index=self.run_index)
        start = stream.next_free_ns
        if start < api_end:
            start = api_end
        busy_until = stream.next_free_ns = (
            start + clean_ns * self.profiler_replay_passes + self._replay_extra_ns
        )
        correlation_id = self._correlation_id = self._correlation_id + 1
        # tuple.__new__ skips the NamedTuple's generated (Python) __new__.
        record = tuple.__new__(KernelLaunchRecord, (
            correlation_id, spec, stream_id, api_start, api_end, start,
            start + clean_ns, busy_until, layer_index,
        ))
        if self.launch_blocking and busy_until > api_end:
            clock.now_ns = busy_until
        if self._launch_log is not None:
            self._launch_log.append(record)
        return record

    # -- synchronization ----------------------------------------------------
    def stream_synchronize(self, stream_id: int = 0) -> int:
        """Block the host until the stream drains; returns host time."""
        clock = self.clock
        free_ns = self.stream(stream_id).next_free_ns
        if free_ns > clock.now_ns:
            clock.now_ns = free_ns
        return clock.now_ns

    # -- memory ------------------------------------------------------------
    def memcpy(self, nbytes: int, kind: str = "h2d") -> MemcpyRecord:
        """Blocking host<->device copy over PCIe (d2d uses DRAM bandwidth)."""
        if kind not in ("h2d", "d2h", "d2d"):
            raise ValueError(f"unknown memcpy kind {kind!r}")
        bandwidth = self.gpu.memory_bandwidth if kind == "d2d" else _PCIE_BANDWIDTH
        start = self.clock.now()
        self.clock.advance(_MEMCPY_FIXED_NS + nbytes / bandwidth * 1e9)
        self._correlation_id += 1
        record = MemcpyRecord(
            correlation_id=self._correlation_id,
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

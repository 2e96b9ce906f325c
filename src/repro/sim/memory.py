"""Device memory pool with allocation tracking.

Frameworks allocate output tensors and workspaces per layer; the layer-level
profile reports per-layer allocated memory (paper Table II's "Alloc Mem"
column).  The pool tracks live bytes, peak usage, and an allocation log.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class OutOfDeviceMemoryError(MemoryError):
    """Raised when an allocation exceeds the device's DRAM capacity."""


@dataclass(frozen=True)
class Allocation:
    """One live device allocation."""

    alloc_id: int
    nbytes: int
    tag: str
    timestamp_ns: int


@dataclass
class AllocationEvent:
    """Log entry for an allocation or free."""

    kind: str  # "alloc" | "free"
    alloc_id: int
    nbytes: int
    tag: str
    timestamp_ns: int
    live_bytes_after: int


@dataclass
class DeviceMemoryPool:
    """Byte-accounting allocator for a simulated device."""

    capacity_bytes: int
    live_bytes: int = 0
    peak_bytes: int = 0
    _next_id: int = 1
    _live: dict[int, Allocation] = field(default_factory=dict)
    log: list[AllocationEvent] = field(default_factory=list)

    def alloc(self, nbytes: int, *, tag: str = "", timestamp_ns: int = 0) -> Allocation:
        if nbytes < 0:
            raise ValueError(f"cannot allocate negative bytes ({nbytes})")
        if self.live_bytes + nbytes > self.capacity_bytes:
            raise OutOfDeviceMemoryError(
                f"allocation of {nbytes} bytes (tag={tag!r}) exceeds device "
                f"capacity {self.capacity_bytes} (live={self.live_bytes})"
            )
        allocation = Allocation(
            alloc_id=self._next_id, nbytes=nbytes, tag=tag, timestamp_ns=timestamp_ns
        )
        self._next_id += 1
        self._live[allocation.alloc_id] = allocation
        self.live_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        self.log.append(
            AllocationEvent(
                kind="alloc",
                alloc_id=allocation.alloc_id,
                nbytes=nbytes,
                tag=tag,
                timestamp_ns=timestamp_ns,
                live_bytes_after=self.live_bytes,
            )
        )
        return allocation

    def free(self, allocation: Allocation, *, timestamp_ns: int = 0) -> None:
        if allocation.alloc_id not in self._live:
            raise KeyError(f"allocation {allocation.alloc_id} is not live")
        del self._live[allocation.alloc_id]
        self.live_bytes -= allocation.nbytes
        self.log.append(
            AllocationEvent(
                kind="free",
                alloc_id=allocation.alloc_id,
                nbytes=allocation.nbytes,
                tag=allocation.tag,
                timestamp_ns=timestamp_ns,
                live_bytes_after=self.live_bytes,
            )
        )

    def free_all(self, *, timestamp_ns: int = 0) -> None:
        for allocation in list(self._live.values()):
            self.free(allocation, timestamp_ns=timestamp_ns)

    def allocated_bytes_by_tag(self) -> dict[str, int]:
        """Total bytes ever allocated, grouped by tag (layer name)."""
        totals: dict[str, int] = {}
        for ev in self.log:
            if ev.kind == "alloc":
                totals[ev.tag] = totals.get(ev.tag, 0) + ev.nbytes
        return totals

"""Device memory pool with allocation tracking.

Frameworks allocate output tensors and workspaces per layer; the layer-level
profile reports per-layer allocated memory (paper Table II's "Alloc Mem"
column).  The pool tracks live allocations, live bytes and peak usage, and
raises :class:`OutOfDeviceMemoryError` at the allocation that would exceed
the device's capacity.  A framework replaying an execution plan applies
the whole prediction's allocation sequence at once with
:meth:`DeviceMemoryPool.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


class OutOfDeviceMemoryError(MemoryError):
    """Raised when an allocation exceeds the device's DRAM capacity."""


@dataclass(frozen=True)
class Allocation:
    """One live device allocation."""

    alloc_id: int
    nbytes: int
    tag: str


@dataclass
class DeviceMemoryPool:
    """Byte-accounting allocator for a simulated device."""

    capacity_bytes: int
    live_bytes: int = 0
    peak_bytes: int = 0
    _next_id: int = 1
    _live: dict[int, Allocation] = field(default_factory=dict)

    def alloc(self, nbytes: int, *, tag: str = "") -> Allocation:
        if nbytes < 0:
            raise ValueError(f"cannot allocate negative bytes ({nbytes})")
        if self.live_bytes + nbytes > self.capacity_bytes:
            raise OutOfDeviceMemoryError(
                f"allocation of {nbytes} bytes (tag={tag!r}) exceeds device "
                f"capacity {self.capacity_bytes} (live={self.live_bytes})"
            )
        allocation = Allocation(alloc_id=self._next_id, nbytes=nbytes, tag=tag)
        self._next_id += 1
        self._live[allocation.alloc_id] = allocation
        self.live_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        return allocation

    def free(self, allocation: Allocation) -> None:
        if allocation.alloc_id not in self._live:
            raise KeyError(f"allocation {allocation.alloc_id} is not live")
        del self._live[allocation.alloc_id]
        self.live_bytes -= allocation.nbytes

    def replay(
        self, allocations: Iterable[tuple[int, int, str]], peak_bytes: int
    ) -> None:
        """Apply an alloc/free sequence that ends with everything freed:
        ``allocations`` yields ``(live_before, nbytes, tag)`` (live bytes
        relative to the pool's), ``peak_bytes`` is the highest
        ``live_before + nbytes``.  A sequence that does not fit is walked to
        its failing allocation, leaving the error, live bytes and peak that
        :meth:`alloc` and :meth:`free` calls would have left."""
        base = self.live_bytes
        if base + peak_bytes > self.capacity_bytes:
            for live_before, nbytes, tag in allocations:
                live = base + live_before
                if live + nbytes > self.capacity_bytes:
                    self.live_bytes = live
                    self.alloc(nbytes, tag=tag)  # raises this one's error
                self.peak_bytes = max(self.peak_bytes, live + nbytes)
        self.peak_bytes = max(self.peak_bytes, base + peak_bytes)

    def free_all(self) -> None:
        self._live.clear()
        self.live_bytes = 0

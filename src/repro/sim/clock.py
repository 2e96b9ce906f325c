"""Virtual time.

Every latency in this reproduction is deterministic virtual time measured
in integer nanoseconds.  The host (framework) owns one clock; device
streams keep their own timelines and synchronize with the host clock at
CUDA synchronization points, mirroring how asynchronous GPU execution
relates to host wall-clock time.
"""

from __future__ import annotations


class VirtualClock:
    """Monotonic virtual clock with nanosecond resolution."""

    __slots__ = ("now_ns",)

    def __init__(self, start_ns: int = 0) -> None:
        #: Current virtual time.  Kernel launches and plan replay move it
        #: directly, forward only and by whole nanoseconds.
        self.now_ns = int(start_ns)

    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self.now_ns

    def advance(self, delta_ns: float) -> int:
        """Advance by ``delta_ns`` (>= 0) nanoseconds; returns the new time."""
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta_ns}")
        self.now_ns += int(round(delta_ns))
        return self.now_ns

    def advance_us(self, delta_us: float) -> int:
        return self.advance(delta_us * 1e3)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now_ns} ns)"

"""CUDA stream model: an in-order device execution timeline.

Work items enqueued on a stream execute back-to-back in enqueue order; a
kernel's device start time is the later of its host launch completion and
the stream becoming free.  This is the asynchrony XSP's launch/execution
span pairs capture.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Stream:
    """An in-order execution queue on the device."""

    stream_id: int
    #: Device time at which the stream next becomes free.
    next_free_ns: int = 0

    def reset(self) -> None:
        self.next_free_ns = 0

"""Span data model.

A span is a timed operation representing a piece of work (paper Sec. III-A).
Each span carries a unique identifier, start/end timestamps (virtual
nanoseconds in this reproduction), user-defined annotations (name, key-value
tags, structured logs), a stack-level tag, and an optional parent reference.

Asynchronous operations (GPU kernels) are represented by *two* spans — a
launch span (the ``cudaLaunchKernel`` API call on the host timeline) and an
execution span (the kernel's effective duration on the device timeline) —
joined by a ``correlation_id`` tag, exactly as the paper describes for
CUPTI-captured kernels.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

_span_counter = itertools.count(1)
_trace_counter = itertools.count(1)


def new_span_id() -> int:
    """Return a process-unique span identifier."""
    return next(_span_counter)


def new_trace_id() -> int:
    """Return a process-unique trace identifier."""
    return next(_trace_counter)


class Level(enum.IntEnum):
    """Stack level of a profiled event.

    Numbering follows the paper ("level 1 is the model level").  The
    ``LIBRARY`` level sits between layer and GPU kernel, reserved for the
    extensibility scenario of Sec. III-E (profiling cuDNN API calls);
    ``APPLICATION`` sits above the model level for whole-application spans.
    """

    APPLICATION = 0
    MODEL = 1
    LAYER = 2
    LIBRARY = 3
    GPU_KERNEL = 4

    @property
    def short_name(self) -> str:
        return {
            Level.APPLICATION: "A",
            Level.MODEL: "M",
            Level.LAYER: "L",
            Level.LIBRARY: "Lib",
            Level.GPU_KERNEL: "G",
        }[self]


class SpanKind(enum.Enum):
    """How a span relates to the work it measures."""

    #: An ordinary synchronous operation.
    INTERNAL = "internal"
    #: Host-side launch of an asynchronous operation (e.g. cudaLaunchKernel).
    LAUNCH = "launch"
    #: Device-side execution of an asynchronous operation.
    EXECUTION = "execution"


@dataclass(frozen=True)
class LogEntry:
    """A timestamped structured log attached to a span."""

    timestamp_ns: int
    fields: Mapping[str, Any]


@dataclass
class Span:
    """A single timed operation in the across-stack timeline."""

    name: str
    start_ns: int
    end_ns: int
    level: Level
    span_id: int = field(default_factory=new_span_id)
    trace_id: int = 0
    parent_id: int | None = None
    kind: SpanKind = SpanKind.INTERNAL
    tags: dict[str, Any] = field(default_factory=dict)
    logs: list[LogEntry] = field(default_factory=list)
    correlation_id: int | None = None

    def __post_init__(self) -> None:
        if self.end_ns < self.start_ns:
            raise ValueError(
                f"span {self.name!r}: end_ns ({self.end_ns}) precedes "
                f"start_ns ({self.start_ns})"
            )

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def contains(self, other: "Span") -> bool:
        """Interval set inclusion: does this span's interval contain *other*'s?"""
        return self.start_ns <= other.start_ns and other.end_ns <= self.end_ns

    def tag(self, key: str, value: Any) -> "Span":
        """Attach a key-value tag; returns self for chaining."""
        self.tags[key] = value
        return self

    def log(self, timestamp_ns: int, **fields: Any) -> "Span":
        """Attach a timestamped structured log entry; returns self."""
        self.logs.append(LogEntry(timestamp_ns=timestamp_ns, fields=dict(fields)))
        return self

    def iter_tags(self) -> Iterator[tuple[str, Any]]:
        return iter(self.tags.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, level={self.level.name}, kind={self.kind.value}, "
            f"[{self.start_ns}, {self.end_ns}] ns, id={self.span_id}, "
            f"parent={self.parent_id})"
        )

"""Tracers: "some code to create and publish spans" (paper Sec. III-A).

Each profiler in the stack owns a :class:`Tracer`.  A span has one
lifecycle: its tracer creates it, stamps it with a ``tracer`` tag naming
the tracer, and publishes it to the :class:`~repro.tracing.server.TracingServer`
(the converting tracers publish row tuples that carry the tag instead).
The tracer keeps no copy; from then on the trace's columnar row is the
only one.  Which stack levels are profiled in a run is chosen by the
session's ``ProfilingConfig``, which decides which tracers publish at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tracing.span import Level, Span

if TYPE_CHECKING:
    from repro.tracing.server import TracingServer


class Tracer:
    """Publishes finished spans of one stack level to a tracing server."""

    def __init__(self, name: str, level: Level, server: TracingServer) -> None:
        self.name = name
        self.level = level
        self.server = server

    def publish(self, span: Span) -> None:
        """Tag a finished span with this tracer's name and publish it."""
        span.tags.setdefault("tracer", self.name)
        self.server.publish(span)

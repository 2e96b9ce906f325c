"""Tracers: "some code to create and publish spans" (paper Sec. III-A).

Each profiler in the stack owns a :class:`Tracer`.  A span has one
lifecycle: its tracer creates it, stamps it with a ``tracer`` tag naming
the tracer, and publishes it to the :class:`~repro.tracing.server.TracingServer`.
The tracer keeps no copy; from then on the trace's columnar row is the
only one.  Which stack levels are profiled in a run is chosen by the
session's ``ProfilingConfig``, which decides which tracers publish at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

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

    def publish_many(self, spans: Iterable[Span]) -> None:
        """Tag a batch of finished spans and publish it in one server call.

        The batch is built before the call, so converting a profiler's
        output stays timed apart from the server ingesting it.
        """
        batch = list(spans)
        for span in batch:
            span.tags.setdefault("tracer", self.name)
        self.server.publish_many(batch)

"""Distributed-tracing substrate used by XSP to aggregate across-stack profiles.

The design follows Section III-A of the paper: every profiler in the HW/SW
stack is turned into a *tracer*, every profiled event becomes a *span*
tagged with its stack level, and a *tracing server* aggregates the spans
published by all tracers into a single timeline trace.  Parent/child links
that the profilers themselves cannot provide (GPU kernels -> layers) are
reconstructed offline by interval containment
(:mod:`repro.tracing.correlation`).
"""

from repro.tracing.span import (
    Level,
    LogEntry,
    Span,
    SpanKind,
    new_span_id,
    new_trace_id,
)
from repro.tracing.index import Gap, TraceIndex
from repro.tracing.table import SpanTable, SpanView
from repro.tracing.tracer import Tracer
from repro.tracing.server import RowBatch, TraceStream, TracingServer
from repro.tracing.trace import Trace
from repro.tracing.correlation import (
    AmbiguousParentError,
    CorrelationResult,
    correlate_launch_execution,
    reconstruct_parents,
)

__all__ = [
    "AmbiguousParentError",
    "CorrelationResult",
    "Gap",
    "Level",
    "LogEntry",
    "RowBatch",
    "Span",
    "SpanKind",
    "SpanTable",
    "SpanView",
    "Trace",
    "TraceIndex",
    "TraceStream",
    "Tracer",
    "TracingServer",
    "correlate_launch_execution",
    "new_span_id",
    "new_trace_id",
    "reconstruct_parents",
]

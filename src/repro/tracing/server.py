"""In-process tracing server.

The paper publishes spans from each tracer to a tracing server (local or
remote) which aggregates them into one application timeline trace.  This
reproduction runs everything in one process, so the server is a thread-safe
in-memory collector keyed by ``trace_id``.

:meth:`TracingServer.publish` takes one :class:`Span`,
:meth:`TracingServer.publish_many` a batch of plain row tuples (the
converted captures of the stack tracers) and
:meth:`TracingServer.publish_rows` a batch of field mappings.  Each
lands in its trace with one
:meth:`~repro.tracing.table.SpanTable.append_rows` call under the
server lock, so a batch is published whole or not at all.

Streaming consumption (live monitoring) rides on the same lock: every
publication advances the destination trace's completed-row watermark and
wakes a condition variable, and :meth:`TracingServer.stream` hands out
:class:`TraceStream` cursors that yield contiguous :class:`RowBatch`
windows of new rows — row indices into the trace's columnar table, no
span objects or views materialized — until the trace is ended.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterable, Iterator, Mapping

from repro.tracing.span import Span, new_trace_id
from repro.tracing.table import SpanTable, SpanView, row_of
from repro.tracing.trace import Trace


class RowBatch:
    """A contiguous window of freshly published rows of one trace.

    Holds only (trace, start, stop): consumers iterate the row indices
    against the trace's columnar table, per the no-object-churn rule.
    ``views()`` materializes flyweights for callers at the API boundary.
    """

    __slots__ = ("trace", "start", "stop")

    def __init__(self, trace: Trace, start: int, stop: int) -> None:
        self.trace = trace
        self.start = start
        self.stop = stop

    @property
    def table(self) -> SpanTable:
        return self.trace.table

    def __len__(self) -> int:
        return self.stop - self.start

    def rows(self) -> range:
        return range(self.start, self.stop)

    def __iter__(self) -> Iterator[int]:
        return iter(self.rows())

    def views(self) -> list[SpanView]:
        """The batch's rows as span views (API-boundary materialization)."""
        table = self.trace.table
        return [SpanView(table, row) for row in self.rows()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RowBatch(trace_id={self.trace.trace_id}, "
            f"rows=[{self.start}, {self.stop}))"
        )


class TraceStream:
    """Cursor over a (possibly still open) trace's published rows.

    ``poll()`` is non-blocking; ``read()`` waits on the server's
    condition variable until rows arrive or the trace is ended.  Iterating
    the stream yields row batches until end-of-capture.  Cursors never
    touch the trace's index — they are safe to drain from another thread
    while the capture is in flight.
    """

    __slots__ = ("_server", "_trace", "_cursor")

    def __init__(self, server: "TracingServer", trace: Trace) -> None:
        self._server = server
        self._trace = trace
        self._cursor = 0

    @property
    def trace(self) -> Trace:
        return self._trace

    @property
    def cursor(self) -> int:
        """Rows consumed so far."""
        return self._cursor

    @property
    def at_end(self) -> bool:
        """True once the trace is closed and every row was consumed."""
        # Order matters: observing `closed` first guarantees the
        # watermark read afterwards is final.
        return self._trace.closed and self._cursor >= self._trace.watermark

    def poll(self, max_rows: int | None = None) -> RowBatch | None:
        """New rows since the cursor, or ``None``; never blocks."""
        watermark = self._trace.watermark
        if watermark <= self._cursor:
            return None
        stop = (
            watermark
            if max_rows is None
            else min(watermark, self._cursor + max_rows)
        )
        batch = RowBatch(self._trace, self._cursor, stop)
        self._cursor = stop
        return batch

    def read(
        self, timeout: float | None = None, max_rows: int | None = None
    ) -> RowBatch | None:
        """Block until new rows arrive; ``None`` at end-of-stream.

        A ``timeout`` (seconds) bounds the *total* wait — the server's
        condition is shared by every trace, so wakeups for other traces'
        publications must not restart the clock.  On timeout ``None`` is
        returned with :attr:`at_end` still False, so callers can
        distinguish a quiet capture from a finished one.
        """
        batch = self.poll(max_rows)
        if batch is not None:
            return batch
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        cond = self._server._cond
        with cond:
            while True:
                batch = self.poll(max_rows)
                if batch is not None:
                    return batch
                if self._trace.closed:
                    return None
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None  # timed out
                cond.wait(remaining)

    def __iter__(self) -> Iterator[RowBatch]:
        while True:
            batch = self.read()
            if batch is None:
                return
            yield batch


class TracingServer:
    """Aggregates spans published by tracers into per-trace timelines."""

    def __init__(self) -> None:
        # Reentrant: publish() may open a trace on demand while holding it.
        self._lock = threading.RLock()
        # Wakes stream cursors after every publication / trace end.
        self._cond = threading.Condition(self._lock)
        self._traces: dict[int, Trace] = {}
        #: Highest trace id ever ended.  Trace ids are a monotonic
        #: process counter, so any id at/below this watermark that is no
        #: longer live has been ended — late publishes to it are dropped
        #: rather than resurrecting an orphan timeline, and the server
        #: keeps O(1) state per lifecycle instead of a growing id set.
        self._ended_watermark = 0
        self._active_trace_id: int | None = None

    # -- trace lifecycle ----------------------------------------------------
    def begin_trace(self, **metadata: object) -> int:
        """Open a new trace and make it the active destination for spans."""
        trace_id = new_trace_id()
        with self._lock:
            self._traces[trace_id] = Trace(trace_id=trace_id, metadata=dict(metadata))
            self._active_trace_id = trace_id
        return trace_id

    def end_trace(self, trace_id: int) -> Trace:
        """Close a trace and return the aggregated timeline.

        The trace is evicted from the server — callers own the returned
        timeline, and a long-lived server no longer accumulates every
        trace it ever aggregated.  Ending an unknown (or already-ended)
        trace raises ``KeyError``.
        """
        with self._lock:
            if self._active_trace_id == trace_id:
                self._active_trace_id = None
            trace = self._traces.pop(trace_id)
            self._ended_watermark = max(self._ended_watermark, trace_id)
            trace.closed = True
            self._cond.notify_all()
            return trace

    # -- publication ----------------------------------------------------------
    def _destination(self, trace_id: int) -> Trace | None:
        """The open trace a publication addressed to ``trace_id`` (0: the
        active trace) belongs in; caller holds the lock.

        Publications addressed to an already-ended trace get ``None`` and
        are dropped: the caller owns that timeline now, and re-creating
        it here would leak an orphan trace no one can retrieve.  A trace
        is constructed only when the publication opens a new one.
        """
        tid = trace_id or self._active_trace_id
        if tid is None:
            return self._traces[self.begin_trace()]
        trace = self._traces.get(tid)
        if trace is None and tid > self._ended_watermark:
            trace = self._traces[tid] = Trace(trace_id=tid)
        return trace

    def publish(self, span: Span) -> None:
        """Publish one span into the active trace (or its own ``trace_id``)."""
        with self._lock:
            trace = self._destination(span.trace_id)
            if trace is not None:
                trace.add(span)
                self._cond.notify_all()

    def publish_many(self, rows: Iterable[tuple]) -> None:
        """Publish a batch of row tuples into the active trace.

        The stack tracers' capture path: each row is a plain tuple in
        ``SpanTable.append_rows`` field order, and the whole batch is
        appended to the trace's columnar table in one call under one
        lock acquisition.  Rows carry no trace id; they land in the
        active trace, which is opened on demand (not for an empty batch).
        """
        rows = list(rows)
        with self._lock:
            if rows:
                # The active trace is never an ended one.
                self._destination(0).add_rows(rows)
            self._cond.notify_all()

    def publish_rows(
        self, trace_id: int, rows: Iterable[Mapping[str, Any]]
    ) -> int:
        """Columnar batch publication into one *open* trace.

        Each mapping holds :func:`~repro.tracing.table.row_of` keywords.
        The mappings become row tuples before the lock is taken, and the
        batch lands with one :meth:`Trace.add_rows` call: whole or not
        at all, and no ``Span`` object is ever constructed — the
        span-free streaming-ingest path (``profile_application``
        re-publishes each finished evaluation through it).  Returns the
        number of rows; raises ``KeyError`` for an unknown or
        already-ended trace.
        """
        batch = [row_of(**fields) for fields in rows]
        with self._lock:
            self._traces[trace_id].add_rows(batch)
            self._cond.notify_all()
        return len(batch)

    def annotate_trace(self, trace_id: int, **metadata: object) -> None:
        """Merge metadata into an open trace, under the server lock."""
        with self._lock:
            self._traces[trace_id].metadata.update(metadata)

    # -- streaming --------------------------------------------------------------
    def stream(self, trace_id: int | None = None) -> TraceStream:
        """A cursor over an open trace's rows as they are published.

        ``trace_id`` defaults to the active trace.  The cursor stays
        valid after the trace ends (it drains the remaining rows, then
        reports end-of-stream); opening a stream on an already-ended
        trace raises ``KeyError`` — the server no longer holds it.
        """
        with self._lock:
            tid = trace_id if trace_id is not None else self._active_trace_id
            if tid is None:
                raise ValueError("no active trace to stream")
            return TraceStream(self, self._traces[tid])

    # -- retrieval --------------------------------------------------------------
    def traces(self) -> list[Trace]:
        with self._lock:
            return list(self._traces.values())

    def clear(self) -> None:
        with self._lock:
            # Raise the watermark over every trace dropped here: ids are
            # process-global, so spans addressed to pre-clear traces stay
            # dropped, not revived as orphans.
            self._ended_watermark = max(
                [self._ended_watermark, *self._traces]
            )
            for trace in self._traces.values():
                trace.closed = True
            self._traces.clear()
            self._active_trace_id = None
            self._cond.notify_all()

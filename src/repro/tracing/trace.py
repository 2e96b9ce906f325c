"""Timeline trace: the aggregation of all spans published for one evaluation.

A :class:`Trace` is what the tracing server hands to the analysis pipeline.
It provides level-based queries, child lookup, and export to the Chrome
``chrome://tracing`` JSON format for visual inspection.

Storage is columnar: every published span is appended to the trace's
:class:`~repro.tracing.table.SpanTable` (structure-of-arrays — see that
module for the storage contract) and no per-span objects are retained.
Published rows are frozen; only ``parent_id`` writes through.
``trace.spans`` is a read-only list-like sequence of lightweight
:class:`~repro.tracing.table.SpanView` flyweights bound to the table's
rows.  Spans enter a trace only through :meth:`Trace.add`,
:meth:`Trace.extend` and :meth:`Trace.add_rows`, which stamp the
trace's id; each is one :meth:`~repro.tracing.table.SpanTable.append_rows`
call, so a batch lands whole or not at all.  Every reader stops at the
table's completed-row watermark, so a row another thread is still
appending is never seen half-written.

Queries are served by a lazily-built :class:`~repro.tracing.index.TraceIndex`
(index once, query many): the first query pays one O(n log n) build,
every later query is a lookup.  The index holds row numbers; the query
methods here wrap them in views for each caller.  Appending spans does
**not** invalidate the index — the next query *advances* it,
merge-sorting the tail of new rows into the built structures
(the no-rebuild-on-append rule; see the index module's maintenance
model).  The advance target is the table's
:attr:`~repro.tracing.table.SpanTable.watermark` of completed rows,
which is what makes an open, still-growing capture queryable
mid-flight.  Code that assigns ``span.parent_id`` by hand after querying
must still call :meth:`Trace.touch_parents`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.tracing.index import Gap, TraceIndex
from repro.tracing.span import Level, Span, SpanKind
from repro.tracing.table import SpanTable, SpanView, span_row


class SpanSequence:
    """Read-only, list-like view of a trace's span table.

    Iteration, indexing and ``len`` cover the rows below the table's
    watermark.
    """

    __slots__ = ("_table",)

    def __init__(self, table: SpanTable) -> None:
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[SpanView]:
        return self._table.views()

    def __getitem__(self, item: int | slice):
        n = len(self._table)
        if isinstance(item, slice):
            return [SpanView(self._table, row) for row in range(n)[item]]
        row = item if item >= 0 else n + item
        if not 0 <= row < n:
            raise IndexError("span index out of range")
        return SpanView(self._table, row)

    def __bool__(self) -> bool:
        return len(self._table) > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanSequence(<{len(self._table)} spans>)"


class Trace:
    """An ordered collection of spans sharing a ``trace_id``."""

    __slots__ = ("trace_id", "table", "metadata", "closed", "_index",
                 "builder")

    def __init__(
        self,
        trace_id: int,
        spans: Iterable[Span] | None = None,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.table = SpanTable()
        self.metadata: dict[str, Any] = metadata if metadata is not None else {}
        #: Set by the tracing server when the capture ends; stream
        #: cursors use it to know no further rows will arrive.
        self.closed = False
        self._index: TraceIndex | None = None
        #: The :class:`~repro.core.pipeline.ProfileBuilder` that
        #: ``profile_from_trace`` advances, like the index, over appends.
        self.builder = None
        if spans is not None:
            self.extend(spans)

    # -- mutation ---------------------------------------------------------
    def add(self, span: Span) -> None:
        span.trace_id = self.trace_id
        self.table.append(span)

    def extend(self, spans: Iterable[Span]) -> None:
        """Stamp ``spans`` with this trace's id and ingest them as one
        batch."""
        spans = list(spans)
        for span in spans:
            span.trace_id = self.trace_id
        self.table.append_rows(
            map(span_row, spans),
            self.trace_id,
            {i: span.logs for i, span in enumerate(spans) if span.logs},
        )

    def add_rows(self, rows: Iterable[tuple]) -> None:
        """Batch ingest of row tuples (:meth:`SpanTable.append_rows`)."""
        self.table.append_rows(rows, self.trace_id)

    # -- index lifecycle --------------------------------------------------
    @property
    def watermark(self) -> int:
        """Rows visible to queries: the table's completed-append mark."""
        return self.table.watermark

    @property
    def index(self) -> TraceIndex:
        """The current index, advanced (never rebuilt) over new appends."""
        idx = self._index
        if idx is None or idx.table is not self.table:
            idx = TraceIndex(self.table, n=self.table.watermark)
            self._index = idx
        elif idx.covered < self.table.watermark:
            idx.advance(self.table.watermark)
        return idx

    def invalidate_index(self) -> None:
        """Force a full cold index rebuild on the next query.

        Not needed for appends (the index advances itself); kept as the
        escape hatch for out-of-band table surgery and as the reference
        path the incremental-maintenance fuzz tests compare against.
        Drops the profile builder too.
        """
        self._index = None
        self.builder = None

    def touch_parents(self) -> None:
        """Signal that ``parent_id`` fields changed: the profile builder
        starts over from row 0."""
        self.builder = None

    # -- queries ------------------------------------------------------------
    @property
    def spans(self) -> SpanSequence:
        return SpanSequence(self.table)

    def __len__(self) -> int:
        return self.table.watermark

    def __iter__(self) -> Iterator[SpanView]:
        return self.table.views()

    def _views(self, rows: Iterable[int]) -> list[SpanView]:
        table = self.table
        return [SpanView(table, row) for row in rows]

    def at_level(self, level: Level) -> list[SpanView]:
        return self._views(self.index.level_rows().get(level, ()))

    def find(self, predicate: Callable[[SpanView], bool]) -> list[SpanView]:
        return [s for s in self.table.views() if predicate(s)]

    def first_named(self, name: str) -> SpanView | None:
        # Interning makes this a column scan for one small int, not a
        # per-span string comparison.
        table = self.table
        name_id = table.name_code(name)
        if name_id is None:
            return None
        try:
            row = table.name_id.index(name_id, 0, table.watermark)
        except ValueError:
            return None
        return SpanView(table, row)

    def by_id(self) -> dict[int, SpanView]:
        rows = self.index.row_by_id()
        table = self.table
        return {span_id: SpanView(table, row) for span_id, row in rows.items()}

    def levels_present(self) -> list[Level]:
        return self.index.levels_present()

    def span_extent_ns(self) -> tuple[int, int]:
        """(min start, max end) across all spans; (0, 0) when empty."""
        return self.index.extent_ns()

    def gaps(self, level: Level, kind: SpanKind | None = None) -> list[Gap]:
        """Idle intervals between spans at ``level`` (optionally one kind).

        Served by the gap index: computed once per (level, kind) per
        trace snapshot, O(1) on every later query.  GPU-kernel execution
        gaps are the device-idle "bubbles" the insight engine flags.
        """
        return list(self.index.gaps(level, kind))

    # -- export ---------------------------------------------------------------
    def to_chrome_trace(self) -> str:
        """Serialize to the Chrome ``trace_event`` JSON format.

        Delegates to :func:`repro.tracing.export.trace_to_chrome`
        (imported lazily; export depends on this module).
        """
        from repro.tracing.export import trace_to_chrome

        return trace_to_chrome(self)

    def summary(self) -> dict[str, Any]:
        """Compact description used in test assertions and reports."""
        per_level = {
            level.name: len(rows)
            for level, rows in self.index.level_rows().items()
        }
        lo, hi = self.span_extent_ns()
        return {
            "trace_id": self.trace_id,
            "n_spans": len(self.table),
            "per_level": per_level,
            "extent_ms": (hi - lo) / 1e6,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(trace_id={self.trace_id}, n_spans={len(self.table)}, "
            f"metadata={self.metadata!r})"
        )

"""Columnar (structure-of-arrays) storage for a trace.

A captured trace is written once and read many times — by the correlation
pass, the merge step, all 15 analyses, the insight rules, and every
export.  Holding it as a Python list of per-span :class:`~repro.tracing.span.Span`
objects makes every one of those readers pay object-graph overhead and
makes a million-span capture cost hundreds of megabytes.  :class:`SpanTable`
stores the same data as parallel typed columns:

* ``span_id`` / ``start_ns`` / ``end_ns`` / ``parent_id`` /
  ``correlation_id`` / ``trace_id`` — ``array('q')`` (signed 64-bit),
* ``level`` / ``kind`` — ``array('b')`` (the enum's integer code),
* ``name_id`` — ``array('I')`` indices into an interned name table
  (kernel names repeat thousands of times per capture),
* tags — scalar-only tag dicts are *packed*: interned as a shared
  ``(key, value)`` tuple in a pool (most spans carry one of a handful of
  tag shapes, e.g. ``{"tracer": "gpu"}``) referenced by a 4-byte
  ``tag_set_id`` column; anything unpackable (mutable or unhashable
  values) lives in a sparse per-row side-store,
* logs — a sparse per-row side-store of :class:`LogEntry` lists.

``None`` parent/correlation ids are encoded as the sentinel ``-1``
(span ids are positive: they come from a process counter or a capture's
own positive ids).

A span has one lifecycle: a tracer creates it as a :class:`Span`, and
the tracing server ingests its fields into the columns.  From then on
the row is the only copy and it is frozen, except ``parent_id``, which
offline correlation fills in.  Reading back out happens through
:class:`SpanView`, a two-slot flyweight bound to (table, row) that
exposes the ``Span`` read surface.  Views compare equal to each other
and to equivalent ``Span`` objects; assigning ``view.parent_id`` writes
through to the column (callers then owe the trace a
``trace.touch_parents()``).  ``view.tags`` is a read-only mapping and
``view.logs`` a tuple, and reading either stores nothing.  New consumers
of trace data should iterate rows and columns (``peek_tags``,
``iter_tags``, ``peek_logs``) and materialize views only at the API
boundary.
"""

from __future__ import annotations

import sys
from array import array
from types import MappingProxyType
from typing import Any, Iterator, Mapping

from repro.tracing.span import Level, LogEntry, Span, SpanKind

#: Stable codes for SpanKind columns (the enum's values are strings).
KINDS: tuple[SpanKind, ...] = (
    SpanKind.INTERNAL,
    SpanKind.LAUNCH,
    SpanKind.EXECUTION,
)
_KIND_CODE: dict[SpanKind, int] = {k: i for i, k in enumerate(KINDS)}
_LEVEL_BY_CODE: dict[int, Level] = {int(lv): lv for lv in Level}

#: Column sentinel for "no parent" / "no correlation id".
NONE_ID = -1

#: Tag values that may participate in a packed (interned) tag-set.
_PACKABLE = (str, int, float, bool, type(None))


def _packable(tags: Mapping[str, Any]) -> bool:
    """True when every key is a str and every value an immutable scalar."""
    for key, value in tags.items():
        if type(key) is not str or not isinstance(value, _PACKABLE):
            return False
    return True


class SpanTable:
    """Structure-of-arrays storage for one trace's spans."""

    __slots__ = (
        "span_id",
        "start_ns",
        "end_ns",
        "parent_id",
        "correlation_id",
        "trace_id",
        "level",
        "kind",
        "name_id",
        "tag_set_id",
        "_names",
        "_name_ids",
        "_tag_pool",
        "_tag_pool_ids",
        "_tags",
        "_logs",
        "_complete",
    )

    def __init__(self) -> None:
        self.span_id = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent_id = array("q")
        self.correlation_id = array("q")
        self.trace_id = array("q")
        self.level = array("b")
        self.kind = array("b")
        self.name_id = array("I")
        # Packed-tag-set reference per row (NONE_ID when empty/unpackable).
        self.tag_set_id = array("i")
        # Interned names: name_id column -> _names[name_id].
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Interned scalar tag-sets: tag_set_id column -> tuple of items
        # (the id map keys on (key, type, value) triples — see _store_tags).
        self._tag_pool: list[tuple[tuple[str, Any], ...]] = []
        self._tag_pool_ids: dict[tuple, int] = {}
        # Sparse side-stores (unpackable tags / structured logs).
        self._tags: dict[int, dict[str, Any]] = {}
        self._logs: dict[int, list[LogEntry]] = {}
        # High-water mark of fully-appended rows (see `watermark`).
        self._complete = 0

    # -- ingest -----------------------------------------------------------
    def append(self, span: Span) -> int:
        """Ingest one finished :class:`Span`; returns its row index."""
        return self.append_row(
            name=span.name,
            start_ns=span.start_ns,
            end_ns=span.end_ns,
            level=span.level,
            span_id=span.span_id,
            trace_id=span.trace_id,
            parent_id=span.parent_id,
            kind=span.kind,
            correlation_id=span.correlation_id,
            tags=span.tags,
            logs=span.logs,
        )

    def append_row(
        self,
        *,
        name: str,
        start_ns: int,
        end_ns: int,
        level: Level | int,
        span_id: int,
        trace_id: int = 0,
        parent_id: int | None = None,
        kind: SpanKind | int = SpanKind.INTERNAL,
        correlation_id: int | None = None,
        tags: Mapping[str, Any] | None = None,
        logs: list[LogEntry] | None = None,
    ) -> int:
        """Raw columnar ingest — the path that never builds a ``Span``."""
        if end_ns < start_ns:
            raise ValueError(
                f"span {name!r}: end_ns ({end_ns}) precedes "
                f"start_ns ({start_ns})"
            )
        row = len(self.span_id)
        self.span_id.append(span_id)
        self.start_ns.append(start_ns)
        self.end_ns.append(end_ns)
        self.parent_id.append(NONE_ID if parent_id is None else parent_id)
        self.correlation_id.append(
            NONE_ID if correlation_id is None else correlation_id
        )
        self.trace_id.append(trace_id)
        self.level.append(int(level))
        self.kind.append(
            kind if isinstance(kind, int) else _KIND_CODE[kind]
        )
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = len(self._names)
            self._name_ids[name] = name_id
            self._names.append(name)
        self.name_id.append(name_id)
        self.tag_set_id.append(NONE_ID)
        if tags:
            self._store_tags(row, tags)
        if logs:
            self._logs[row] = list(logs)
        # Published last: a concurrent reader that observes the new
        # watermark is guaranteed every column (and side-store) of the
        # row is in place.
        self._complete = row + 1
        return row

    def _store_tags(self, row: int, tags: Mapping[str, Any]) -> None:
        if _packable(tags):
            # The interning key carries each value's type: equal-but-
            # differently-typed values (True/1/1.0) must not share a
            # pooled tag-set or they would read back with the first
            # value's type.
            key = tuple((k, type(v), v) for k, v in tags.items())
            pool_id = self._tag_pool_ids.get(key)
            if pool_id is None:
                pool_id = len(self._tag_pool)
                self._tag_pool_ids[key] = pool_id
                self._tag_pool.append(tuple(tags.items()))
            self.tag_set_id[row] = pool_id
        else:
            self._tags[row] = dict(tags)

    # -- size -------------------------------------------------------------
    def __len__(self) -> int:
        # The watermark, not a raw column length: a capture thread may be
        # mid-append, with some columns one row longer than others.
        return self._complete

    @property
    def watermark(self) -> int:
        """Count of fully-appended rows — the streaming-read bound.

        Bumped as the last step of every ``append_row``, so rows below
        the watermark are complete across all columns and side-stores
        even while another thread is mid-append (appends themselves are
        serialized by the tracing server's lock).  Index maintenance and
        stream cursors advance to this mark, never to a raw column
        length, which may momentarily include a half-written row.
        """
        return self._complete

    @property
    def nbytes(self) -> int:
        """Estimated resident bytes of this table (columns + side-stores).

        A ``sys.getsizeof``-based estimate: typed column buffers, the
        interned name and tag-set pools, and the sparse side-stores of
        unpackable tags and logs.  It grows with ingested rows only;
        reading rows back never changes it.
        """
        total = 0
        for column in (
            self.span_id,
            self.start_ns,
            self.end_ns,
            self.parent_id,
            self.correlation_id,
            self.trace_id,
            self.level,
            self.kind,
            self.name_id,
            self.tag_set_id,
        ):
            total += sys.getsizeof(column)
        total += sys.getsizeof(self._names)
        total += sum(sys.getsizeof(n) for n in self._names)
        total += sys.getsizeof(self._name_ids)
        total += sys.getsizeof(self._tag_pool)
        for items in self._tag_pool:
            total += sys.getsizeof(items)
            for key, value in items:
                total += sys.getsizeof(key) + sys.getsizeof(value)
        total += sys.getsizeof(self._tag_pool_ids)
        total += self._sidestore_nbytes(self._tags)
        total += self._sidestore_nbytes(self._logs)
        return total

    @staticmethod
    def _sidestore_nbytes(store: dict) -> int:
        total = sys.getsizeof(store)
        for value in store.values():
            total += sys.getsizeof(value)
            if isinstance(value, dict):
                for k, v in value.items():
                    total += sys.getsizeof(k) + sys.getsizeof(v)
            else:  # log lists
                for entry in value:
                    total += sys.getsizeof(entry)
        return total

    # -- row accessors ----------------------------------------------------
    def name_of(self, row: int) -> str:
        return self._names[self.name_id[row]]

    def name_code(self, name: str) -> int | None:
        """The interned code for ``name``, or ``None`` if never ingested.

        Lets consumers turn a by-name scan into a column scan for one
        small int (compare against the ``name_id`` column).
        """
        return self._name_ids.get(name)

    def level_of(self, row: int) -> Level:
        return _LEVEL_BY_CODE[self.level[row]]

    def kind_of(self, row: int) -> SpanKind:
        return KINDS[self.kind[row]]

    def parent_id_of(self, row: int) -> int | None:
        pid = self.parent_id[row]
        return None if pid == NONE_ID else pid

    def set_parent_id(self, row: int, parent_id: int | None) -> None:
        self.parent_id[row] = NONE_ID if parent_id is None else parent_id

    def correlation_id_of(self, row: int) -> int | None:
        cid = self.correlation_id[row]
        return None if cid == NONE_ID else cid

    # -- tags / logs ------------------------------------------------------
    def peek_tags(self, row: int) -> Mapping[str, Any]:
        """A row's tags as a mapping.

        Callers must not mutate it: packed rows get a fresh dict, rows
        with unpackable tags the stored one.
        """
        tags = self._tags.get(row)
        if tags is not None:
            return tags
        pool_id = self.tag_set_id[row]
        if pool_id != NONE_ID:
            return dict(self._tag_pool[pool_id])
        return {}

    def iter_tags(self, row: int) -> Iterator[tuple[str, Any]]:
        """Iterate a row's tag items without building a dict."""
        tags = self._tags.get(row)
        if tags is not None:
            return iter(tags.items())
        pool_id = self.tag_set_id[row]
        if pool_id != NONE_ID:
            return iter(self._tag_pool[pool_id])
        return iter(())

    def peek_logs(self, row: int) -> list[LogEntry]:
        """The row's logs; callers must not mutate the list."""
        return self._logs.get(row, [])

    # -- views ------------------------------------------------------------
    def view(self, row: int) -> "SpanView":
        return SpanView(self, row)

    def views(self) -> Iterator["SpanView"]:
        for row in range(self._complete):
            yield SpanView(self, row)


class SpanView:
    """Flyweight ``Span``-compatible view of one :class:`SpanTable` row.

    Reads go straight to the columns; assigning ``parent_id`` writes
    through (callers still owe the trace a ``touch_parents()``, as with
    plain spans).  All other fields, tags and logs included, are
    read-only: a published span is frozen.
    """

    __slots__ = ("_table", "_row")

    def __init__(self, table: SpanTable, row: int) -> None:
        self._table = table
        self._row = row

    # -- core fields ------------------------------------------------------
    @property
    def name(self) -> str:
        return self._table.name_of(self._row)

    @property
    def start_ns(self) -> int:
        return self._table.start_ns[self._row]

    @property
    def end_ns(self) -> int:
        return self._table.end_ns[self._row]

    @property
    def level(self) -> Level:
        return self._table.level_of(self._row)

    @property
    def kind(self) -> SpanKind:
        return self._table.kind_of(self._row)

    @property
    def span_id(self) -> int:
        return self._table.span_id[self._row]

    @property
    def trace_id(self) -> int:
        return self._table.trace_id[self._row]

    @property
    def correlation_id(self) -> int | None:
        return self._table.correlation_id_of(self._row)

    @property
    def parent_id(self) -> int | None:
        return self._table.parent_id_of(self._row)

    @parent_id.setter
    def parent_id(self, value: int | None) -> None:
        self._table.set_parent_id(self._row, value)

    @property
    def tags(self) -> Mapping[str, Any]:
        return MappingProxyType(self._table.peek_tags(self._row))

    @property
    def logs(self) -> tuple[LogEntry, ...]:
        return tuple(self._table.peek_logs(self._row))

    # -- Span API parity --------------------------------------------------
    @property
    def duration_ns(self) -> int:
        table, row = self._table, self._row
        return table.end_ns[row] - table.start_ns[row]

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    @property
    def duration_us(self) -> float:
        return self.duration_ns / 1e3

    def contains(self, other) -> bool:
        return self.start_ns <= other.start_ns and other.end_ns <= self.end_ns

    def overlaps(self, other) -> bool:
        return self.start_ns < other.end_ns and other.start_ns < self.end_ns

    def iter_tags(self) -> Iterator[tuple[str, Any]]:
        return self._table.iter_tags(self._row)

    # -- identity ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpanView):
            if self._table is other._table:
                return self._row == other._row
            other_logs = other._table.peek_logs(other._row)
        elif isinstance(other, Span):
            other_logs = other.logs
        else:
            return NotImplemented
        return (
            self.name == other.name
            and self.start_ns == other.start_ns
            and self.end_ns == other.end_ns
            and self.level == other.level
            and self.span_id == other.span_id
            and self.trace_id == other.trace_id
            and self.parent_id == other.parent_id
            and self.kind == other.kind
            and dict(self.iter_tags()) == dict(other.iter_tags())
            and self._table.peek_logs(self._row) == other_logs
            and self.correlation_id == other.correlation_id
        )

    # Mutable-record semantics, like the (unhashable) Span dataclass.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, level={self.level.name}, "
            f"kind={self.kind.value}, [{self.start_ns}, {self.end_ns}] ns, "
            f"id={self.span_id}, parent={self.parent_id})"
        )

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
* tags — ``tag_schema`` (``array('I')``) indexes an interned tuple of
  tag keys (a *schema*), and ``tag_start`` (``array('q')``) is the offset
  of the row's values, in key order, in one flat value list.  Values are
  stored as given (tuples, lists, dicts) and not interned, so
  ``True``/``1``/``1.0`` keep their types,
* logs — a sparse per-row side-store of :class:`LogEntry` lists.

``None`` parent/correlation ids are encoded as the sentinel ``-1``
(span ids are positive: they come from a process counter or a capture's
own positive ids).

:meth:`SpanTable.append_row` ingests one span's fields with a tag
mapping; :meth:`SpanTable.append_rows` a batch of plain row tuples, the
stack tracers' capture path, which builds no ``Span`` and no tag dict
per kernel.  From then on the row is the only copy and it is frozen, except
``parent_id``, which offline correlation fills in.  Reading back out
happens through :class:`SpanView`, a two-slot flyweight bound to
(table, row) that exposes the ``Span`` read surface.  Views compare
equal to each other and to equivalent ``Span`` objects; assigning
``view.parent_id`` writes through to the column (callers then owe the
trace a ``trace.touch_parents()``).  ``view.tags`` is a read-only
mapping and ``view.logs`` a tuple, and reading either stores nothing.
New consumers of trace data should iterate rows and columns
(``tag_columns``, ``iter_tags``, ``peek_logs``) and materialize views
only at the API boundary.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, chain, islice
from operator import lt
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, Sequence

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


class _Pool(dict):
    """An interning pool: maps each value to its code, adding unseen
    values on lookup (``pool[value]``); ``get`` never adds."""

    __slots__ = ("by_code",)

    def __init__(self) -> None:
        super().__init__()
        self.by_code: list = []

    def __missing__(self, value) -> int:
        code = self[value] = len(self.by_code)
        self.by_code.append(value)
        return code


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
        "tag_schema",
        "tag_start",
        "_names",
        "_schemas",
        "_values",
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
        # Per row: its interned key tuple and the offset of its values.
        self.tag_schema = array("I")
        self.tag_start = array("q")
        self._names = _Pool()
        self._schemas = _Pool()
        # Every row's tag values, back to back in schema order.
        self._values: list[Any] = []
        # Sparse side-store of structured logs.
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
        """Raw columnar ingest of one span's fields — no ``Span`` built."""
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
        self.name_id.append(self._names[name])
        self.tag_schema.append(self._schemas[tuple(tags) if tags else ()])
        self.tag_start.append(len(self._values))
        if tags:
            self._values.extend(tags.values())
        if logs:
            self._logs[row] = list(logs)
        # Published last: a concurrent reader that observes the new
        # watermark is guaranteed every column (and side-store) of the
        # row is in place.
        self._complete = row + 1
        return row

    def append_rows(self, rows: Iterable[Sequence], trace_id: int) -> None:
        """Ingest a batch of row tuples, each in the field order
        ``(name, start_ns, end_ns, level, kind, span_id, parent_id,
        correlation_id, keys, values)``: ``level`` and ``kind`` are column
        codes, a missing parent or correlation id is :data:`NONE_ID`, and
        ``values`` matches the tuple of tag ``keys``.

        The batch is transposed and each column extended once.  Every
        row is checked and every column converted before the first one
        is extended, so a bad row leaves the table unchanged.
        """
        columns = list(zip(*rows))
        if not columns:
            return
        names, starts, ends, levels, kinds, span_ids, parents, \
            correlations, schemas, values = columns
        if any(map(lt, ends, starts)):
            row = next(i for i, (s, e) in enumerate(zip(starts, ends)) if e < s)
            raise ValueError(
                f"span {names[row]!r}: end_ns ({ends[row]}) precedes "
                f"start_ns ({starts[row]})"
            )
        widths = list(map(len, schemas))
        if widths != list(map(len, values)):
            raise ValueError("a row's tag values do not match its keys")
        n = len(names)
        tails = (
            (self.span_id, array("q", span_ids)),
            (self.start_ns, array("q", starts)),
            (self.end_ns, array("q", ends)),
            (self.parent_id, array("q", parents)),
            (self.correlation_id, array("q", correlations)),
            (self.trace_id, array("q", (trace_id,)) * n),
            (self.level, array("b", levels)),
            (self.kind, array("b", kinds)),
            (self.name_id, array("I", map(self._names.__getitem__, names))),
            (self.tag_schema,
             array("I", map(self._schemas.__getitem__, schemas))),
            (self.tag_start, array(
                "q", islice(accumulate(widths, initial=len(self._values)), n)
            )),
        )
        for column, tail in tails:
            column.extend(tail)
        self._values.extend(chain.from_iterable(values))
        self._complete = len(self.span_id)  # published last, as above

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
        """Estimated resident bytes of this table (columns + stores).

        A ``sys.getsizeof``-based estimate: typed column buffers, the
        interned name and schema pools, the flat value list with each
        distinct value object counted once, and the sparse log store.
        It grows with ingested rows only; reading rows back never
        changes it.
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
            self.tag_schema,
            self.tag_start,
        ):
            total += sys.getsizeof(column)
        for pool in (self._names, self._schemas):
            total += sys.getsizeof(pool) + sys.getsizeof(pool.by_code)
            total += sum(map(sys.getsizeof, pool.by_code))
        keys = {id(key): key for keys in self._schemas for key in keys}
        total += sum(map(sys.getsizeof, keys.values()))
        total += sys.getsizeof(self._values)
        distinct = {id(value): value for value in self._values}
        total += sum(map(sys.getsizeof, distinct.values()))
        total += sys.getsizeof(self._logs)
        for entries in self._logs.values():
            total += sys.getsizeof(entries)
            total += sum(map(sys.getsizeof, entries))
        return total

    # -- row accessors ----------------------------------------------------
    def name_of(self, row: int) -> str:
        return self._names.by_code[self.name_id[row]]

    def name_code(self, name: str) -> int | None:
        """The interned code for ``name``, or ``None`` if never ingested.

        Lets consumers turn a by-name scan into a column scan for one
        small int (compare against the ``name_id`` column).
        """
        return self._names.get(name)

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
    def peek_tags(self, row: int) -> dict[str, Any]:
        """A row's tags as a fresh dict (keys in ingest order)."""
        return dict(self.iter_tags(row))

    def iter_tags(self, row: int) -> Iterator[tuple[str, Any]]:
        """Iterate a row's tag items without building a dict."""
        schema = self._schemas.by_code[self.tag_schema[row]]
        start = self.tag_start[row]
        return zip(schema, self._values[start:start + len(schema)])

    def tag_columns(
        self, rows: Sequence[int], keys: Sequence[str], defaults: Sequence[Any]
    ) -> list[list]:
        """For each of ``keys``, its value in each of ``rows``; a row
        without the key reads as the key's default.

        A key's position is resolved once per schema, and each column is
        one pass over the rows' value offsets: no dict is built per row.
        """
        schemas, values = self._schemas.by_code, self._values
        schema_col, start_col = self.tag_schema, self.tag_start
        schema_ids = [schema_col[row] for row in rows]
        starts = [start_col[row] for row in rows]
        where = {
            schema_id: {key: i for i, key in enumerate(schemas[schema_id])}
            for schema_id in set(schema_ids)
        }
        columns = []
        for key, default in zip(keys, defaults):
            at = {sid: pos[key] for sid, pos in where.items() if key in pos}
            if len(at) == len(where) == 1:
                [i] = at.values()
                columns.append([values[start + i] for start in starts])
            else:
                columns.append([
                    values[start + at[sid]] if sid in at else default
                    for sid, start in zip(schema_ids, starts)
                ])
        return columns

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

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

Every row enters through :meth:`SpanTable.append_rows`, which takes a
batch of plain row tuples (the stack tracers' capture path builds no
``Span`` and no tag dict per kernel; :func:`row_of` and
:func:`span_row` make a tuple from keyword fields or from a ``Span``),
or through :meth:`SpanTable.extend_columns`, which reads a trace file's
columns.  A bad row in either call raises and leaves the table
unchanged, so a batch lands whole or not at all.  From then on the row is
the only copy and it is frozen, except ``parent_id``, which offline
correlation fills in.  Reading back out happens through
:class:`SpanView`, a two-slot flyweight bound to (table, row) that
exposes the ``Span`` read surface.  Views compare equal to each other
and to equivalent ``Span`` objects; assigning ``view.parent_id`` writes
through to the column (callers then owe the trace a
``trace.touch_parents()``).  ``view.tags`` is a read-only mapping and
``view.logs`` a tuple, and reading either stores nothing.  New
consumers of trace data should iterate rows and columns
(``tag_columns``, ``iter_tags``, ``peek_logs``, ``pools``) and
materialize views only at the API boundary.

The table also owns its on-disk layout, the trace file's format v3
(see :mod:`repro.tracing.export`): :meth:`SpanTable.to_columns` packs
each stored integer column as the base64 of its little-endian bytes and
the tag values as one pool of distinct values plus a packed column of
codes, next to the name and schema pools and the logs.
:meth:`SpanTable.extend_columns` decodes such a document (or a v2 one,
one JSON list per column), checks it whole and then extends every column
once.  Rows loaded from a v3 file share their pool values: equal lists
are one object, which no reader mutates.

:meth:`SpanTable.value_pool` is the one tag-value pool, read by the v3
writer and the Chrome export: a table keeps the pool and codes of the
v3 file it was loaded into, and any other builds one on request.
"""

from __future__ import annotations

import json
import sys
from array import array
from base64 import b64decode, b64encode
from itertools import accumulate, chain, islice
from math import isfinite
from operator import lt
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

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

#: The trace file format :meth:`SpanTable.to_columns` writes.
FORMAT_VERSION = 3

#: The typed columns a trace file stores, in file order, with their
#: ``array`` typecodes (``tag_start`` is rebuilt from schema widths).
_STORED_COLUMNS: tuple[tuple[str, str], ...] = (
    ("span_id", "q"),
    ("start_ns", "q"),
    ("end_ns", "q"),
    ("parent_id", "q"),
    ("correlation_id", "q"),
    ("trace_id", "q"),
    ("level", "b"),
    ("kind", "b"),
    ("name_id", "I"),
    ("tag_schema", "I"),
)

#: The typecodes a ``value_codes`` column may have; the writer picks the
#: narrowest that numbers the whole value pool.
_CODE_TYPECODES = "BHI"

#: Value types JSON encodes as they are; others go through `jsonable`.
JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def jsonable(value: Any) -> Any:
    """``value`` in a JSON-encodable form: scalars as they are, tuples and
    lists as lists, dicts with string keys, anything else as its repr."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [v if type(v) in JSON_SCALARS else jsonable(v) for v in value]
    if isinstance(value, dict):
        return {
            str(k): v if type(v) in JSON_SCALARS else jsonable(v)
            for k, v in value.items()
        }
    return repr(value)


#: One value as JSON text, exactly as ``json.dumps`` writes it inside a
#: document (ASCII-escaped, default separators).
json_text = json.JSONEncoder(check_circular=False).encode


def json_texts(values: list) -> list[str]:
    """Each of ``values`` as JSON text.

    Finite floats and ints are written with their ``repr``, each list of
    ints as its ``str`` (equal lists once), and any other value through
    the json encoder after :func:`jsonable`.  Types are matched exactly,
    so a bool or a float never shares the text of an equal int.
    """
    types = set(map(type, values))
    if types == {int} or types == {float} and all(map(isfinite, values)):
        return list(map(repr, values))
    if types <= {list, tuple} and set(
        map(type, chain.from_iterable(values))
    ) <= {int}:
        keys = list(map(tuple, values))
        text = {key: str(list(key)) for key in set(keys)}
        return list(map(text.__getitem__, keys))
    return [json_text(jsonable(value)) for value in values]


def _pool_keys(values: list) -> list[str | int]:
    """Keys that tell one tag column's values apart as their JSON texts
    do: a column of finite floats is keyed by each value's bit pattern
    (an ``int``), any other column by JSON text (:func:`json_texts`)."""
    if set(map(type, values)) == {float} and all(map(isfinite, values)):
        return np.array(values, dtype=np.float64).view(np.int64).tolist()
    return json_texts(values)


def _packed(column: array) -> dict[str, Any]:
    """A stored column as a trace file holds it: its typecode, its length
    and the base64 of its items' little-endian bytes."""
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return {"typecode": column.typecode, "length": len(column),
            "data": b64encode(column).decode("ascii")}


def _unpacked(name: str, typecodes: str, stored: Any) -> array:
    """The ``array`` of one :func:`_packed` column, after checking that its
    typecode is one of ``typecodes`` and that its base64 decodes to
    exactly ``length`` items."""
    if not isinstance(stored, Mapping):
        raise ValueError(f"trace column {name!r} is not a packed column")
    typecode, length, data = (stored.get("typecode"), stored.get("length"),
                              stored.get("data"))
    if type(typecode) is not str or typecode not in set(typecodes):
        raise ValueError(f"trace column {name!r}: unknown typecode "
                         f"{typecode!r} (expected {', '.join(typecodes)})")
    try:
        raw = b64decode(data, validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ValueError(
            f"trace column {name!r}: 'data' is not base64") from None
    column = array(typecode)
    if type(length) is not int or len(raw) != length * column.itemsize:
        raise ValueError(f"trace column {name!r}: {len(raw)} bytes, not "
                         f"{length} items of {column.itemsize} bytes")
    column.frombytes(raw)
    if sys.byteorder == "big":
        column.byteswap()
    return column


def _ints(column: array) -> np.ndarray:
    """A read-only numpy view of an integer ``array``."""
    return np.frombuffer(column, dtype=column.typecode)


def _listed(name: str, typecode: str, stored: Any) -> array:
    """The ``array`` of one format-v2 column (a JSON list)."""
    try:
        return array(typecode, stored)
    except (TypeError, OverflowError) as err:
        raise ValueError(f"trace column {name!r}: {err}") from None


def _check_order(starts: Sequence[int], ends: Sequence[int],
                 name_of: Callable[[int], str]) -> None:
    """Raise ``ValueError`` for the first row that ends before it starts."""
    if any(map(lt, ends, starts)):
        row = next(i for i, (s, e) in enumerate(zip(starts, ends)) if e < s)
        raise ValueError(
            f"span {name_of(row)!r}: end_ns ({ends[row]}) precedes "
            f"start_ns ({starts[row]})"
        )


def _logs_to_list(entries: list[LogEntry]) -> list[list]:
    return [
        [entry.timestamp_ns,
         {str(k): jsonable(v) for k, v in entry.fields.items()}]
        for entry in entries
    ]


def _logs_from_pair(item: Any, n: int) -> tuple[int, list[LogEntry]]:
    """One stored ``[row, [[timestamp_ns, fields], ...]]`` log pair."""
    try:
        row, entries = item
        if type(row) is not int or not 0 <= row < n:
            raise ValueError
        logs = []
        for timestamp_ns, fields in entries:
            if type(timestamp_ns) is not int or not isinstance(fields, dict):
                raise ValueError
            logs.append(LogEntry(timestamp_ns=timestamp_ns, fields=fields))
    except (TypeError, ValueError):
        raise ValueError(f"malformed log entry {item!r:.80}") from None
    return row, logs


def row_of(
    name: str,
    start_ns: int,
    end_ns: int,
    level: Level | int,
    span_id: int,
    parent_id: int | None = None,
    kind: SpanKind | int = SpanKind.INTERNAL,
    correlation_id: int | None = None,
    tags: Mapping[str, Any] | None = None,
) -> tuple:
    """One span's fields as a :meth:`SpanTable.append_rows` tuple."""
    tags = tags or {}
    return (
        name, start_ns, end_ns, int(level),
        kind if isinstance(kind, int) else _KIND_CODE[kind],
        span_id,
        NONE_ID if parent_id is None else parent_id,
        NONE_ID if correlation_id is None else correlation_id,
        tuple(tags), tuple(tags.values()),
    )


def span_row(span: Span) -> tuple:
    """A :class:`Span` as a :meth:`SpanTable.append_rows` tuple (its
    trace id and logs travel beside the row)."""
    return row_of(span.name, span.start_ns, span.end_ns, span.level,
                  span.span_id, span.parent_id, span.kind,
                  span.correlation_id, span.tags)


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
        "_file_pool",
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
        # (rows, value pool, value codes) of the v3 file loaded into the
        # empty table, if any (see `value_pool`).
        self._file_pool: tuple[int, list, array] | None = None

    # -- ingest -----------------------------------------------------------
    def append(self, span: Span) -> int:
        """Ingest one finished :class:`Span`; returns its row index."""
        self.append_rows([span_row(span)], span.trace_id,
                         {0: span.logs} if span.logs else None)
        return self._complete - 1

    def append_rows(
        self,
        rows: Iterable[Sequence],
        trace_id: int,
        logs: Mapping[int, list[LogEntry]] | None = None,
    ) -> None:
        """Ingest a batch of row tuples, each in the field order
        ``(name, start_ns, end_ns, level, kind, span_id, parent_id,
        correlation_id, keys, values)``: ``level`` and ``kind`` are column
        codes, a missing parent or correlation id is :data:`NONE_ID`, and
        ``values`` matches the tuple of tag ``keys``.  ``logs`` maps a
        row's position in the batch to its log entries.

        The batch is transposed and each column extended once.  Every
        row's interval and tag width is checked before the first column
        grows, and a value its column cannot hold rolls every column back
        before the watermark moves, so a bad row leaves the table
        unchanged.
        """
        columns = list(zip(*rows))
        if not columns:
            return
        names, starts, ends, levels, kinds, span_ids, parents, \
            correlations, schemas, values = columns
        _check_order(starts, ends, names.__getitem__)
        widths = list(map(len, schemas))
        if widths != list(map(len, values)):
            raise ValueError("a row's tag values do not match its keys")
        n = len(names)
        base = len(self.span_id)
        tails = (
            (self.span_id, span_ids),
            (self.start_ns, starts),
            (self.end_ns, ends),
            (self.parent_id, parents),
            (self.correlation_id, correlations),
            (self.trace_id, (trace_id,) * n),
            (self.level, levels),
            (self.kind, kinds),
            (self.name_id, map(self._names.__getitem__, names)),
            (self.tag_schema, map(self._schemas.__getitem__, schemas)),
            (self.tag_start,
             islice(accumulate(widths, initial=len(self._values)), n)),
        )
        try:
            for column, tail in tails:
                column.extend(tail)
        except (TypeError, OverflowError):
            for column, _ in tails:
                del column[base:]
            raise
        self._values.extend(chain.from_iterable(values))
        if logs:
            for row, entries in logs.items():
                self._logs[base + row] = list(entries)
        # Published last: a concurrent reader that observes the new
        # watermark is guaranteed every column (and side-store) of the
        # batch is in place.
        self._complete = len(self.span_id)

    # -- on-disk layout ---------------------------------------------------
    def to_columns(self) -> dict[str, Any]:
        """The rows below the watermark as a JSON-ready format-v3 table.

        Each stored column is :func:`_packed` (``-1`` means none; ``level``
        and ``kind`` are column codes), next to the ``names`` and
        ``schemas`` pools, the tag values (:meth:`value_pool`: a
        ``value_pool`` list and a ``value_codes`` column packed with the
        narrowest typecode that numbers the pool) and the sparse ``logs``
        as ``[row, [[timestamp_ns, fields], ...]]`` pairs.  The name and
        schema pools stop at the highest code a row uses, so a row still
        being appended leaves nothing behind.
        """
        n = self._complete
        document = {
            name: _packed(getattr(self, name)[:n])
            for name, _ in _STORED_COLUMNS
        }
        name_ids, tag_schema = self.name_id[:n], self.tag_schema[:n]
        schemas = self._schemas.by_code[:max(tag_schema, default=-1) + 1]
        document["names"] = self._names.by_code[:max(name_ids, default=-1) + 1]
        document["schemas"] = [[str(key) for key in keys] for keys in schemas]
        pool, codes = self.value_pool(n)
        typecode = next(code for code in _CODE_TYPECODES
                        if len(pool) <= 1 << 8 * array(code).itemsize)
        document["value_pool"] = pool
        document["value_codes"] = _packed(
            array(typecode, codes.astype(typecode).tobytes()))
        document["logs"] = [
            [row, _logs_to_list(entries)]
            for row, entries in sorted(self._logs.items()) if row < n
        ]
        return document

    def value_pool(self, n: int) -> tuple[list, np.ndarray]:
        """The distinct tag values of the first ``n`` rows, JSON-ready, and
        each value cell's code in that pool (rows back to back, in key
        order); callers must not mutate either.

        A v3 file loaded into the empty table gives its pool and codes
        while the rows are exactly the file's.  Otherwise the pool is
        built and not stored: values share an entry only if their JSON
        texts are equal (:func:`_pool_keys`, one (schema, key) column and
        each distinct value object in it once), numbered in order of
        first appearance.
        """
        if self._file_pool is not None and self._file_pool[0] == n:
            return self._file_pool[1], _ints(self._file_pool[2])
        values = self._values
        end = (self.tag_start[n - 1]
               + len(self._schemas.by_code[self.tag_schema[n - 1]])
               if n else 0)
        # Each cell's value object; a column keys each distinct one once.
        ids = np.fromiter(map(id, values[:end]), np.int64, end)
        pool: dict[str | int, int] = {}
        entries: list = []
        codes = np.zeros(end, dtype=np.uint32)
        starts = _ints(self.tag_start[:n])
        for schema, rows in self.schema_groups(n):
            first = starts[rows]
            for i in range(len(schema)):
                cells = first + i
                _, at, inverse = np.unique(ids[cells], return_index=True,
                                           return_inverse=True)
                order = np.argsort(at)
                objects = list(map(values.__getitem__,
                                   cells[at[order]].tolist()))
                keys = _pool_keys(objects)
                for key, value in zip(keys, objects):
                    if key not in pool:
                        pool[key] = len(entries)
                        entries.append(jsonable(value))
                object_codes = np.empty(len(order), dtype=np.uint32)
                object_codes[order] = list(map(pool.__getitem__, keys))
                codes[cells] = object_codes[inverse]
        return entries, codes

    def schema_groups(self, n: int) -> Iterator[tuple[tuple, np.ndarray]]:
        """Each tag schema with keys that the first ``n`` rows use, in code
        order, with the rows that use it, in row order."""
        codes = _ints(self.tag_schema[:n])
        order = np.argsort(codes, kind="stable")
        for rows in np.split(order, np.flatnonzero(np.diff(codes[order])) + 1):
            keys = self._schemas.by_code[codes[rows[0]]] if len(rows) else ()
            if keys:
                yield keys, rows

    def extend_columns(self, document: Mapping[str, Any],
                       version: int = FORMAT_VERSION) -> None:
        """Append the rows of a :meth:`to_columns` table of format
        ``version`` (3, or 2: plain JSON lists and a flat ``values`` list).

        The whole document is checked before the first column is
        extended: any fault raises one ``ValueError`` naming the part at
        fault, and leaves the table unchanged.  ``tag_start`` is rebuilt
        from the schema widths, and name and schema codes are re-interned,
        so a non-empty table can be extended too.  Rows of a v3 table
        that hold equal values hold the same pool object, so tag values
        are read-only.
        """
        if not isinstance(document, Mapping):
            raise ValueError("trace table is not a JSON object")
        read = _unpacked if version >= 3 else _listed
        columns = {}
        for name, typecode in _STORED_COLUMNS:
            if name not in document:
                raise ValueError(f"trace table has no {name!r} column")
            columns[name] = read(name, typecode, document[name])
        n = len(columns["span_id"])
        if any(len(column) != n for column in columns.values()):
            raise ValueError("trace columns differ in length")
        level, kind, name_id, tag_schema, starts, ends = map(_ints, (
            columns["level"], columns["kind"], columns["name_id"],
            columns["tag_schema"], columns["start_ns"], columns["end_ns"],
        ))
        if not _LEVEL_BY_CODE.keys() >= set(np.unique(level).tolist()):
            raise ValueError("trace column 'level' holds an unknown level code")
        if n and not 0 <= kind.min() <= kind.max() < len(KINDS):
            raise ValueError("trace column 'kind' holds an unknown kind code")
        names = document.get("names")
        if not isinstance(names, list) or any(type(x) is not str for x in names):
            raise ValueError("trace 'names' is not a list of strings")
        schemas = document.get("schemas")
        if not isinstance(schemas, list) or not all(
            isinstance(keys, list) and all(type(k) is str for k in keys)
            for keys in schemas
        ):
            raise ValueError("trace 'schemas' is not a list of key lists")
        if n and name_id.max() >= len(names):
            raise ValueError("trace column 'name_id' is out of range")
        if n and tag_schema.max() >= len(schemas):
            raise ValueError("trace column 'tag_schema' is out of range")
        widths = np.array(list(map(len, schemas)), dtype=np.int64)
        row_widths = widths[tag_schema]
        width = int(row_widths.sum())
        if version >= 3:
            pool = document.get("value_pool")
            if not isinstance(pool, list):
                raise ValueError("trace 'value_pool' is not a list")
            code_column = _unpacked("value_codes", _CODE_TYPECODES,
                                    document.get("value_codes"))
            codes = _ints(code_column)
            if len(codes) != width:
                raise ValueError(
                    "trace 'value_codes' do not match the schema widths")
            if width and codes.max() >= len(pool):
                raise ValueError("trace column 'value_codes' is out of range")
        else:
            values = document.get("values")
            if not isinstance(values, list) or len(values) != width:
                raise ValueError("trace 'values' do not match the schema widths")
        if (ends < starts).any():
            _check_order(starts.tolist(), ends.tolist(),
                         lambda row: names[name_id[row]])
        span_ids = set(columns["span_id"])
        if len(span_ids) != n or not span_ids.isdisjoint(
            self.span_id[:self._complete]
        ):
            raise ValueError("trace holds a duplicated span id")
        logs = document.get("logs")
        if not isinstance(logs, list):
            raise ValueError("trace 'logs' is not a list")
        logs = dict(_logs_from_pair(item, n) for item in logs)
        # Checked; from here on nothing can fail.
        if version >= 3:
            pooled = np.empty(len(pool), dtype=object)
            for code, value in enumerate(pool):
                pooled[code] = value
            values = pooled[codes].tolist()
        name_codes = [self._names[name] for name in names]
        schema_codes = [self._schemas[tuple(keys)] for keys in schemas]
        for name, interned in (("name_id", name_codes),
                               ("tag_schema", schema_codes)):
            if interned != list(range(len(interned))):
                columns[name] = array(
                    "I", map(interned.__getitem__, columns[name]))
        base = len(self.span_id)
        if version >= 3 and not base:
            self._file_pool = (n, pool, code_column)
        for name, column in columns.items():
            getattr(self, name).extend(column)
        offsets = np.cumsum(row_widths) - row_widths + len(self._values)
        self.tag_start.frombytes(offsets.tobytes())
        self._values.extend(values)
        for row, entries in logs.items():
            self._logs[base + row] = entries
        self._complete = len(self.span_id)  # published last (append_rows)

    # -- size -------------------------------------------------------------
    def __len__(self) -> int:
        # The watermark, not a raw column length: a capture thread may be
        # mid-append, with some columns one row longer than others.
        return self._complete

    @property
    def watermark(self) -> int:
        """Count of fully-appended rows — the streaming-read bound.

        Bumped as the last step of every append, so rows below
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
        distinct value object counted once, the value pool and codes kept
        from a loaded file, and the sparse log store.
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
        if self._file_pool is not None:
            total += sum(map(sys.getsizeof, self._file_pool[1:]))
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

    def pools(self) -> tuple[list, list[tuple]]:
        """The interned names and tag schemas, indexed by the ``name_id``
        and ``tag_schema`` codes; callers must not mutate them."""
        return self._names.by_code, self._schemas.by_code

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

    def contains(self, other) -> bool:
        return self.start_ns <= other.start_ns and other.end_ns <= self.end_ns

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

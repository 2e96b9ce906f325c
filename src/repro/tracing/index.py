"""Lazily-built query indexes over a :class:`~repro.tracing.trace.Trace`.

The analysis pipeline's defining access pattern is *index once, query
many*: a trace is captured (or loaded) once and then interrogated by the
correlation pass, the merge step, and all 15 analyses.  :class:`TraceIndex`
builds each index a single time over the trace's columnar
:class:`~repro.tracing.table.SpanTable` and serves all subsequent queries
from it.

Two layers of indexes exist:

* **row-level** (the hot path): timeline orderings, level/kind
  partitions, the id map, extents, and the gap index are all built from —
  and answered as — row indices into the table's columns.  The sweep-line
  correlator, the gap rules, and the exporters consume these directly and
  never materialize span objects.  When numpy is importable the orderings
  and partitions are computed with zero-copy ``frombuffer`` views over
  the columns (``lexsort``/``nonzero``); the pure-Python fallback is
  identical in output.
* **view-level** (the compatible public surface): ``sorted_spans()``,
  ``by_level()``, ``by_id()``, ... materialize
  :class:`~repro.tracing.table.SpanView` flyweights from the row indexes,
  lazily and cached per family.

Maintenance model (high-water mark, not invalidation)
-----------------------------------------------------
An index covers one *prefix* of its table — ``covered`` rows, the
high-water mark it was last synchronized to.  Appending spans does **not**
drop the index: the next query calls :meth:`TraceIndex.advance`, which
merge-sorts the pending tail of new rows into every structure already
built (orderings, partitions, id map, extent, gap folds) instead of
rebuilding the world.  The merged state is, structure for structure,
identical to a cold rebuild over the grown table (fuzzed by
``tests/tracing/test_span_table.py``); structures not yet built simply
build lazily over the full covered prefix later.  Rows remain immutable
for indexing purposes with one exception — ``parent_id``, which the
offline correlation pass assigns after capture.  The parent-derived
indexes (children, roots) live behind the narrower epoch that
:func:`repro.tracing.correlation.reconstruct_parents` and
:func:`~repro.tracing.correlation.correlate_launch_execution` bump via
:meth:`Trace.touch_parents`; an append also drops them (a new span id can
resolve a previously dangling parent).  Code that mutates
``span.parent_id`` by hand after querying a trace must call
``touch_parents`` as before.

Cold builders read bounded snapshot copies of the columns (``col[:n]``)
rather than zero-copy buffer exports: a live (still-growing) table may be
appended to by the capture thread while a monitor advances the index, and
holding a buffer export across that append would raise ``BufferError`` in
the writer.  The copies are single C-level ``memcpy`` calls — atomic
under the GIL and noise next to the sort they feed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.tracing.span import Level, SpanKind
from repro.tracing.table import KINDS, NONE_ID, SpanTable, SpanView, _KIND_CODE

try:  # optional acceleration; storage stays stdlib-array either way
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _np = None


@dataclass(frozen=True)
class Gap:
    """An idle interval between two spans on one level's timeline.

    ``before_id``/``after_id`` are the span ids bounding the gap: the span
    whose end opens the gap and the span whose start closes it.  Both
    always resolve against the trace the gap was computed from.
    """

    start_ns: int
    end_ns: int
    before_id: int
    after_id: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6


def _fold_gaps(
    table: SpanTable,
    rows: List[int],
    gaps: List[Gap],
    frontier: Optional[int],
) -> Optional[int]:
    """Fold timeline-sorted ``rows`` into ``gaps``; returns the frontier row.

    Overlapping spans are coalesced on the fly (track the running max end
    and the row that achieves it), so a "gap" is an interval covered by
    *no* span at all — exactly the device-idle bubbles of a GPU timeline.
    Passing the frontier row returned by a previous fold continues that
    fold — the incremental gap-maintenance path — and is only valid when
    every new row sorts at/after the rows already folded.
    """
    starts = table.start_ns
    ends = table.end_ns
    ids = table.span_id
    it = iter(rows)
    if frontier is None:
        frontier = next(it, None)
        if frontier is None:
            return None
    frontier_end = ends[frontier]
    for row in it:
        start = starts[row]
        if start > frontier_end:
            gaps.append(
                Gap(
                    start_ns=frontier_end,
                    end_ns=start,
                    before_id=ids[frontier],
                    after_id=ids[row],
                )
            )
        end = ends[row]
        if end > frontier_end:
            frontier = row
            frontier_end = end
    return frontier


def _timeline_rows(
    table: SpanTable,
    rows: List[int] | None = None,
    *,
    n: int | None = None,
) -> List[int]:
    """Row indices by (start, -duration) — parents before children.

    Two stable passes (end desc, then start asc) over C-level keys: equal
    starts keep the end-descending order, which is exactly
    duration-descending; full ties keep row (publication) order.  ``n``
    bounds the build to the table's first ``n`` rows (the covered prefix
    of a still-growing capture).
    """
    if rows is None:
        count = len(table) if n is None else n
        if _np is not None and count > 64:
            # Bounded snapshot copies, not zero-copy exports: see the
            # module docstring's live-table note.
            starts = _np.frombuffer(table.start_ns[:count], dtype=_np.int64)
            ends = _np.frombuffer(table.end_ns[:count], dtype=_np.int64)
            # lexsort is stable and sorts by the *last* key first.
            return _np.lexsort((-ends, starts)).tolist()
        rows = list(range(count))
        out = rows
    else:
        out = list(rows)
    out.sort(key=table.end_ns.__getitem__, reverse=True)
    out.sort(key=table.start_ns.__getitem__)
    return out


def _merge_timeline(
    table: SpanTable, base: List[int], tail: List[int]
) -> None:
    """Merge timeline-sorted ``tail`` rows into sorted ``base``, in place.

    Stable with ``base`` winning ties: tail rows are always newer
    (higher row indices), so the result is element-for-element identical
    to a cold stable sort of the union.  Three regimes: pure append when
    the tail starts at/after the base's last key (the streaming common
    case, O(k)); per-row bisect insertion for small tails (O(k log n)
    compares + C-level memmoves); otherwise one stable timsort over the
    concatenation, which gallop-merges the two pre-sorted runs.
    """
    starts = table.start_ns
    ends = table.end_ns
    if not tail:
        return
    if not base:
        base.extend(tail)
        return
    last, first = base[-1], tail[0]
    if (starts[last], -ends[last]) <= (starts[first], -ends[first]):
        base.extend(tail)
        return
    key = lambda r: (starts[r], -ends[r])  # noqa: E731 - local sort key
    if len(tail) * 16 < len(base):
        for row in tail:
            base.insert(bisect_right(base, key(row), key=key), row)
        return
    base.extend(tail)
    base.sort(key=key)


class TraceIndex:
    """Indexes over the covered prefix of a trace's span table.

    All builders are lazy: the first query of each family pays the build
    cost, subsequent queries are dictionary/list lookups.  When the table
    grows, :meth:`advance` merges the new tail into every structure
    already built instead of discarding anything (see the module
    docstring).  The containers returned by accessors are the internal
    ones — :class:`Trace` copies them before handing them to callers so
    the cached state can never be corrupted from outside.
    """

    __slots__ = (
        "table",
        "_n",
        "_rows_sorted",
        "_level_rows",
        "_level_rows_sorted",
        "_kind_rows",
        "_row_by_id",
        "_extent",
        "_levels",
        "_gaps",
        "_gap_state",
        "_children_rows",
        "_root_rows",
        "_sorted_views",
        "_by_level_views",
        "_by_id_views",
        "_children_views",
        "_roots_views",
    )

    def __init__(self, table: SpanTable, n: int | None = None) -> None:
        self.table = table
        self._n = len(table) if n is None else n
        # row-level caches
        self._rows_sorted: Optional[List[int]] = None
        self._level_rows: Optional[Dict[Level, List[int]]] = None
        self._level_rows_sorted: Dict[Level, List[int]] = {}
        self._kind_rows: Optional[Dict[SpanKind, List[int]]] = None
        self._row_by_id: Optional[Dict[int, int]] = None
        self._extent: Optional[Tuple[int, int]] = None
        self._levels: Optional[List[Level]] = None
        self._gaps: Dict[Tuple[Level, Optional[SpanKind]], List[Gap]] = {}
        # Per-(level, kind) fold continuation: (last sort key, frontier
        # row) of the rows already folded into the cached gap list.
        self._gap_state: Dict[
            Tuple[Level, Optional[SpanKind]], Tuple[Tuple[int, int], int]
        ] = {}
        self._children_rows: Optional[Dict[Optional[int], List[int]]] = None
        self._root_rows: Optional[List[int]] = None
        # view-level caches (materialized lazily from the row level)
        self._sorted_views: Optional[List[SpanView]] = None
        self._by_level_views: Optional[Dict[Level, List[SpanView]]] = None
        self._by_id_views: Optional[Dict[int, SpanView]] = None
        self._children_views: Optional[Dict[Optional[int], List[SpanView]]] = None
        self._roots_views: Optional[List[SpanView]] = None

    # -- cache validity ---------------------------------------------------
    @property
    def covered(self) -> int:
        """Number of table rows this index currently describes."""
        return self._n

    def invalidate_parents(self) -> None:
        """Drop the parent-derived indexes (children, roots)."""
        self._children_rows = None
        self._root_rows = None
        self._children_views = None
        self._roots_views = None

    def advance(self, to_n: int | None = None) -> int:
        """Merge rows ``[covered, to_n)`` into every built structure.

        The incremental-maintenance hot path: instead of rebuilding, the
        pending tail is appended to the membership partitions, written
        into the id map, merge-sorted into the timeline orderings, and
        folded into the gap caches — each result identical to a cold
        rebuild over the grown prefix.  Structures that were never built
        stay unbuilt (they build lazily over the full prefix later).
        Parent-derived indexes and the materialized view caches are
        dropped: a new span id can resolve a dangling parent, and view
        lists re-materialize cheaply from the maintained row lists.
        Returns the number of rows absorbed.
        """
        table = self.table
        new_n = len(table) if to_n is None else to_n
        old_n = self._n
        if new_n <= old_n:
            return 0
        tail = range(old_n, new_n)
        starts = table.start_ns
        ends = table.end_ns
        levels_col = table.level

        if self._level_rows is not None:
            buckets = self._level_rows
            for row in tail:
                level = Level(levels_col[row])
                try:
                    buckets[level].append(row)
                except KeyError:
                    buckets[level] = [row]
        if self._kind_rows is not None:
            buckets_k = self._kind_rows
            kinds_col = table.kind
            for row in tail:
                kind = KINDS[kinds_col[row]]
                try:
                    buckets_k[kind].append(row)
                except KeyError:
                    buckets_k[kind] = [row]
        if self._row_by_id is not None:
            ids = table.span_id
            by_id = self._row_by_id
            for row in tail:
                by_id[ids[row]] = row
        if self._extent is not None:
            lo = min(starts[r] for r in tail)
            hi = max(ends[r] for r in tail)
            if old_n == 0:
                self._extent = (lo, hi)
            else:
                cur_lo, cur_hi = self._extent
                self._extent = (min(cur_lo, lo), max(cur_hi, hi))
        if self._levels is not None:
            fresh = {Level(levels_col[r]) for r in tail}
            if not fresh.issubset(self._levels):
                self._levels = sorted(fresh.union(self._levels))

        # Timeline orderings and gap folds share one sorted tail.
        if (
            self._rows_sorted is not None
            or self._level_rows_sorted
            or self._gaps
        ):
            tail_sorted = _timeline_rows(table, list(tail))
            if self._rows_sorted is not None:
                _merge_timeline(table, self._rows_sorted, tail_sorted)
            level_tails: Dict[Level, List[int]] = {}
            for row in tail_sorted:
                level = Level(levels_col[row])
                try:
                    level_tails[level].append(row)
                except KeyError:
                    level_tails[level] = [row]
            for level, cached in self._level_rows_sorted.items():
                lt = level_tails.get(level)
                if lt:
                    _merge_timeline(table, cached, lt)
            self._advance_gaps(level_tails)

        # A new span id can turn an existing "root" into a child, so the
        # parent-derived indexes (and all view materializations) reset.
        self.invalidate_parents()
        self._sorted_views = None
        self._by_level_views = None
        self._by_id_views = None
        self._n = new_n
        return new_n - old_n

    def _advance_gaps(self, level_tails: Dict[Level, List[int]]) -> None:
        """Fold new rows into the cached gap lists, key by key.

        Rows arriving in timeline order continue the stored fold in
        O(tail); an out-of-order arrival (a span sorting before rows
        already folded) drops that key's cache, which then rebuilds
        lazily — and only as O(m) over the already-merged ordering, never
        a re-sort.
        """
        if not self._gaps:
            return
        table = self.table
        starts = table.start_ns
        ends = table.end_ns
        kinds_col = table.kind
        for gap_key in list(self._gaps):
            level, kind = gap_key
            lk_tail = level_tails.get(level, [])
            if kind is not None:
                code = _KIND_CODE[kind]
                lk_tail = [r for r in lk_tail if kinds_col[r] == code]
            if not lk_tail:
                continue
            state = self._gap_state.get(gap_key)
            frontier: Optional[int] = None
            if state is not None:
                last_key, frontier = state
                first = lk_tail[0]
                if (starts[first], -ends[first]) < last_key:
                    del self._gaps[gap_key]
                    del self._gap_state[gap_key]
                    continue
            frontier = _fold_gaps(
                table, lk_tail, self._gaps[gap_key], frontier
            )
            tail_last = lk_tail[-1]
            self._gap_state[gap_key] = (
                (starts[tail_last], -ends[tail_last]),
                frontier,
            )

    # -- row-level indexes (the hot path) ---------------------------------
    def rows_sorted(self) -> List[int]:
        """Row indices in timeline order (start asc, duration desc)."""
        if self._rows_sorted is None:
            self._rows_sorted = _timeline_rows(self.table, n=self._n)
        return self._rows_sorted

    def level_rows(self) -> Dict[Level, List[int]]:
        """Level -> row indices at that level, in publication order."""
        if self._level_rows is None:
            table = self.table
            buckets: Dict[Level, List[int]] = {}
            if _np is not None and self._n > 64:
                codes = _np.frombuffer(
                    table.level[: self._n], dtype=_np.int8
                )
                for code in _np.unique(codes).tolist():
                    buckets[Level(code)] = _np.nonzero(codes == code)[
                        0
                    ].tolist()
            else:
                for row, code in enumerate(table.level[: self._n]):
                    level = Level(code)
                    try:
                        buckets[level].append(row)
                    except KeyError:
                        buckets[level] = [row]
            self._level_rows = buckets
        return self._level_rows

    def level_rows_sorted(self, level: Level) -> List[int]:
        """Rows at ``level`` in timeline order (the sweep-line's view)."""
        cached = self._level_rows_sorted.get(level)
        if cached is None:
            cached = _timeline_rows(self.table, self.level_rows().get(level, []))
            self._level_rows_sorted[level] = cached
        return cached

    def kind_rows(self) -> Dict[SpanKind, List[int]]:
        if self._kind_rows is None:
            table = self.table
            buckets: Dict[SpanKind, List[int]] = {}
            if _np is not None and self._n > 64:
                codes = _np.frombuffer(table.kind[: self._n], dtype=_np.int8)
                for code in _np.unique(codes).tolist():
                    buckets[KINDS[code]] = _np.nonzero(codes == code)[
                        0
                    ].tolist()
            else:
                for row in range(self._n):
                    kind = table.kind_of(row)
                    try:
                        buckets[kind].append(row)
                    except KeyError:
                        buckets[kind] = [row]
            self._kind_rows = buckets
        return self._kind_rows

    def row_by_id(self) -> Dict[int, int]:
        """span_id -> row index (last write wins, as the dict did)."""
        if self._row_by_id is None:
            self._row_by_id = dict(
                zip(self.table.span_id.tolist(), range(self._n))
            )
        return self._row_by_id

    def levels_present(self) -> List[Level]:
        if self._levels is None:
            self._levels = sorted(self.level_rows())
        return self._levels

    def extent_ns(self) -> Tuple[int, int]:
        """(min start, max end) across all spans; (0, 0) when empty."""
        if self._extent is None:
            if self._n == 0:
                self._extent = (0, 0)
            elif _np is not None and self._n > 64:
                starts = _np.frombuffer(
                    self.table.start_ns[: self._n], dtype=_np.int64
                )
                ends = _np.frombuffer(
                    self.table.end_ns[: self._n], dtype=_np.int64
                )
                self._extent = (int(starts.min()), int(ends.max()))
            else:
                self._extent = (
                    min(self.table.start_ns[: self._n]),
                    max(self.table.end_ns[: self._n]),
                )
        return self._extent

    def level_extent_ns(
        self, level: Level, kind: Optional[SpanKind] = None
    ) -> Optional[Tuple[int, int]]:
        """(min start, max end) of one level's (optionally one kind's)
        timeline; ``None`` when no such spans exist."""
        rows = self._level_kind_rows(level, kind)
        if not rows:
            return None
        starts = self.table.start_ns
        ends = self.table.end_ns
        # Rows are timeline-sorted: the first start is the minimum.
        return starts[rows[0]], max(ends[r] for r in rows)

    def _level_kind_rows(
        self, level: Level, kind: Optional[SpanKind]
    ) -> List[int]:
        rows = self.level_rows_sorted(level)
        if kind is None:
            return rows
        table_kind = self.table.kind
        code = _KIND_CODE[kind]
        return [r for r in rows if table_kind[r] == code]

    def gaps(self, level: Level, kind: Optional[SpanKind] = None) -> List[Gap]:
        """Idle intervals between ``level``'s spans (optionally one kind).

        Built once per (level, kind) from the already-cached timeline
        ordering; every later query is a dictionary lookup, so insight
        rules iterating a trace's bubbles add no O(n) rescans.
        """
        key = (level, kind)
        cached = self._gaps.get(key)
        if cached is None:
            rows = self._level_kind_rows(level, kind)
            cached = []
            frontier = _fold_gaps(self.table, rows, cached, None)
            self._gaps[key] = cached
            if rows:
                last = rows[-1]
                table = self.table
                self._gap_state[key] = (
                    (table.start_ns[last], -table.end_ns[last]),
                    frontier,
                )
        return cached

    # -- parent-derived row indexes (see the invalidation model above) ----
    def children_rows(self) -> Dict[Optional[int], List[int]]:
        """Parent span id -> child rows, each bucket in start order."""
        if self._children_rows is None:
            table = self.table
            buckets: Dict[Optional[int], List[int]] = {}
            parents = table.parent_id
            for row in range(self._n):
                pid = parents[row]
                key = None if pid == NONE_ID else pid
                try:
                    buckets[key].append(row)
                except KeyError:
                    buckets[key] = [row]
            starts = table.start_ns
            for kids in buckets.values():
                kids.sort(key=starts.__getitem__)
            self._children_rows = buckets
        return self._children_rows

    def root_rows(self) -> List[int]:
        """Rows with no (known) parent, in publication order."""
        if self._root_rows is None:
            ids = self.row_by_id()
            parents = self.table.parent_id
            self._root_rows = [
                row
                for row in range(self._n)
                if parents[row] == NONE_ID or parents[row] not in ids
            ]
        return self._root_rows

    # -- view-level indexes (compatible public surface) -------------------
    def _views(self, rows: List[int]) -> List[SpanView]:
        table = self.table
        return [SpanView(table, row) for row in rows]

    def sorted_spans(self) -> List[SpanView]:
        """Spans in timeline order (start asc, duration desc; stable)."""
        if self._sorted_views is None:
            self._sorted_views = self._views(self.rows_sorted())
        return self._sorted_views

    def by_level(self) -> Dict[Level, List[SpanView]]:
        """Level -> spans at that level, in publication order."""
        if self._by_level_views is None:
            self._by_level_views = {
                level: self._views(rows)
                for level, rows in self.level_rows().items()
            }
        return self._by_level_views

    def by_id(self) -> Dict[int, SpanView]:
        if self._by_id_views is None:
            table = self.table
            self._by_id_views = {
                span_id: SpanView(table, row)
                for span_id, row in self.row_by_id().items()
            }
        return self._by_id_views

    def children_index(self) -> Dict[Optional[int], List[SpanView]]:
        """Parent span id -> children, each bucket in start order."""
        if self._children_views is None:
            self._children_views = {
                parent: self._views(rows)
                for parent, rows in self.children_rows().items()
            }
        return self._children_views

    def children_of(self, span_id: int) -> List[SpanView]:
        return self.children_index().get(span_id, [])

    def roots(self) -> List[SpanView]:
        """Spans with no (known) parent, in publication order."""
        if self._roots_views is None:
            self._roots_views = self._views(self.root_rows())
        return self._roots_views

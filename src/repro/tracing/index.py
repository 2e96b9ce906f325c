"""Lazily-built query indexes over a :class:`~repro.tracing.trace.Trace`.

The analysis pipeline's defining access pattern is *index once, query
many*: a trace is captured (or loaded) once and then interrogated by the
correlation pass, the merge step, and all 15 analyses.  :class:`TraceIndex`
builds each index a single time over the trace's columnar
:class:`~repro.tracing.table.SpanTable` and serves all subsequent queries
from it.

Every index is built from — and answered as — row indices into the
table's columns: timeline orderings, level/kind partitions, the id map,
extents and the gap index.  The
sweep-line correlator, the gap rules, and the exporters consume these
directly; :class:`~repro.tracing.trace.Trace`'s query methods wrap rows
in :class:`~repro.tracing.table.SpanView` flyweights at the API
boundary, and the index keeps no views.  Orderings and partitions are
computed with numpy (``lexsort``/``nonzero``) over copies of the
columns; numpy is a runtime dependency.

Maintenance model (high-water mark, not invalidation)
-----------------------------------------------------
An index covers one *prefix* of its table — ``covered`` rows, the
high-water mark it was last synchronized to.  Appending spans does **not**
drop the index: the next query calls :meth:`TraceIndex.advance`, which
merge-sorts the tail of new rows into every structure already
built (orderings, partitions, id map, extent, gap folds) instead of
rebuilding the world.  The merged state is, structure for structure,
identical to a cold rebuild over the grown table (fuzzed by
``tests/tracing/test_span_table.py``); structures not yet built simply
build lazily over the full covered prefix later.  Rows remain immutable
for indexing purposes with one exception — ``parent_id``, which the
offline correlation pass assigns after capture.  No index is derived
from it; the trace's profile builder is, so
:func:`repro.tracing.correlation.reconstruct_parents`,
:func:`~repro.tracing.correlation.correlate_launch_execution` and any
code that mutates ``span.parent_id`` by hand call
:meth:`Trace.touch_parents`.

Builders read bounded snapshot copies of the columns (``col[:n]``)
rather than zero-copy buffer exports: a live (still-growing) table may be
appended to by the capture thread while a monitor advances the index, and
holding a buffer export across that append would raise ``BufferError`` in
the writer.  The copies are single C-level ``memcpy`` calls — atomic
under the GIL and noise next to the sort they feed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.tracing.span import Level, SpanKind
from repro.tracing.table import KINDS, SpanTable, _KIND_CODE


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
    rows: Sequence[int] | None = None,
    *,
    n: int | None = None,
) -> List[int]:
    """Row indices by (start, -duration) — parents before children.

    One stable ``lexsort`` by start ascending, then end descending:
    equal starts come out duration-descending and full ties keep their
    given (publication) order.  ``rows`` is a ``range`` of rows (an
    advance's tail) or a list of rows below ``n``; by default it is the
    table's first ``n`` rows (the covered prefix of a still-growing
    capture).
    """
    if rows is None:
        rows = range(len(table) if n is None else n)
    if len(rows) < 2:  # already in order; skips numpy's per-call cost
        return list(rows)
    if isinstance(rows, range):
        lo, hi, pick = rows.start, rows.stop, None
    else:
        lo, hi, pick = 0, n, np.array(rows, dtype=np.intp)
    # Bounded snapshot copies, not zero-copy exports: see the module
    # docstring's live-table note.
    starts = np.frombuffer(table.start_ns[lo:hi], dtype=np.int64)
    ends = np.frombuffer(table.end_ns[lo:hi], dtype=np.int64)
    if pick is None:
        # lexsort is stable and sorts by the *last* key first.
        return (np.lexsort((-ends, starts)) + lo).tolist()
    return pick[np.lexsort((-ends[pick], starts[pick]))].tolist()


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
    ones: callers must not mutate them (:class:`Trace` hands its callers
    new lists of views).
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
        "_gaps",
        "_gap_state",
    )

    def __init__(self, table: SpanTable, n: int | None = None) -> None:
        self.table = table
        self._n = len(table) if n is None else n
        self._rows_sorted: Optional[List[int]] = None
        self._level_rows: Optional[Dict[Level, List[int]]] = None
        self._level_rows_sorted: Dict[Level, List[int]] = {}
        self._kind_rows: Optional[Dict[SpanKind, List[int]]] = None
        self._row_by_id: Optional[Dict[int, int]] = None
        self._extent: Optional[Tuple[int, int]] = None
        self._gaps: Dict[Tuple[Level, Optional[SpanKind]], List[Gap]] = {}
        # Per-(level, kind) fold continuation: (first start, last sort
        # key, frontier row) of the rows already folded into the cached
        # gap list.
        self._gap_state: Dict[
            Tuple[Level, Optional[SpanKind]],
            Tuple[int, Tuple[int, int], int],
        ] = {}

    # -- cache validity ---------------------------------------------------
    @property
    def covered(self) -> int:
        """Number of table rows this index currently describes."""
        return self._n

    def advance(self, to_n: int | None = None) -> int:
        """Merge rows ``[covered, to_n)`` into every built structure.

        The incremental-maintenance hot path: instead of rebuilding, the
        tail of new rows is appended to the membership partitions, written
        into the id map, merge-sorted into the timeline orderings, and
        folded into the gap caches — each result identical to a cold
        rebuild over the grown prefix.  Structures that were never built
        stay unbuilt (they build lazily over the full prefix later).
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

        # Timeline orderings and gap folds share one sorted tail.
        if (
            self._rows_sorted is not None
            or self._level_rows_sorted
            or self._gaps
        ):
            tail_sorted = _timeline_rows(table, tail)
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
            first_start = starts[lk_tail[0]]
            if state is not None:
                first_start, last_key, frontier = state
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
                first_start,
                (starts[tail_last], -ends[tail_last]),
                frontier,
            )

    # -- indexes --------------------------------------------------------
    def rows_sorted(self) -> List[int]:
        """Row indices in timeline order (start asc, duration desc)."""
        if self._rows_sorted is None:
            self._rows_sorted = _timeline_rows(self.table, n=self._n)
        return self._rows_sorted

    def level_rows(self) -> Dict[Level, List[int]]:
        """Level -> row indices at that level, in publication order."""
        if self._level_rows is None:
            codes = np.frombuffer(self.table.level[: self._n], dtype=np.int8)
            self._level_rows = {
                Level(code): np.flatnonzero(codes == code).tolist()
                for code in np.unique(codes).tolist()
            }
        return self._level_rows

    def level_rows_sorted(self, level: Level) -> List[int]:
        """Rows at ``level`` in timeline order (the sweep-line's view)."""
        cached = self._level_rows_sorted.get(level)
        if cached is None:
            cached = _timeline_rows(
                self.table, self.level_rows().get(level, []), n=self._n
            )
            self._level_rows_sorted[level] = cached
        return cached

    def kind_rows(self) -> Dict[SpanKind, List[int]]:
        if self._kind_rows is None:
            codes = np.frombuffer(self.table.kind[: self._n], dtype=np.int8)
            self._kind_rows = {
                KINDS[code]: np.flatnonzero(codes == code).tolist()
                for code in np.unique(codes).tolist()
            }
        return self._kind_rows

    def row_by_id(self) -> Dict[int, int]:
        """span_id -> row index (last write wins, as the dict did)."""
        if self._row_by_id is None:
            self._row_by_id = dict(
                zip(self.table.span_id.tolist(), range(self._n))
            )
        return self._row_by_id

    def levels_present(self) -> List[Level]:
        return sorted(self.level_rows())

    def extent_ns(self) -> Tuple[int, int]:
        """(min start, max end) across all spans; (0, 0) when empty."""
        if self._extent is None:
            if self._n == 0:
                self._extent = (0, 0)
            else:
                starts = np.frombuffer(
                    self.table.start_ns[: self._n], dtype=np.int64
                )
                ends = np.frombuffer(
                    self.table.end_ns[: self._n], dtype=np.int64
                )
                self._extent = (int(starts.min()), int(ends.max()))
        return self._extent

    def level_extent_ns(
        self, level: Level, kind: Optional[SpanKind] = None
    ) -> Optional[Tuple[int, int]]:
        """(min start, max end) of one level's (optionally one kind's)
        timeline; ``None`` when no such spans exist.  Read from the gap
        fold: its first row's start and its frontier row's end."""
        self.gaps(level, kind)
        state = self._gap_state.get((level, kind))
        if state is None:
            return None
        first_start, _, frontier = state
        return first_start, self.table.end_ns[frontier]

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
                    table.start_ns[rows[0]],
                    (table.start_ns[last], -table.end_ns[last]),
                    frontier,
                )
        return cached

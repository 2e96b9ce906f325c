"""Interval-tree oracle for the sweep-line parent reconstruction.

The paper (Sec. III-A) reconstructs missing parent-child relationships by
building an interval tree over span start/end timestamps and checking
interval set inclusion.  This module provides a classic centered interval
tree supporting stabbing queries (all intervals containing a point) and
containment queries (all intervals containing a query interval), both in
O(log n + k), plus :func:`tree_reconstruct_parents`, a per-orphan
tree-query reparenting pass that the tests compare
:func:`repro.tracing.correlation.reconstruct_parents` against.

Construction is iterative (no recursion depth limit on adversarial
traces) and every node precomputes the endpoint arrays its queries
bisect over.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Generic, Iterable, Iterator, List, Optional, TypeVar

from repro.tracing.correlation import (
    _EXECUTION_CODE,
    CorrelationResult,
    _choose_parent,
    _parent_level_map,
)
from repro.tracing.table import NONE_ID
from repro.tracing.trace import Trace

T = TypeVar("T")


@dataclass(frozen=True)
class Interval(Generic[T]):
    """A half-open-agnostic interval ``[start, end]`` carrying a payload.

    Containment checks treat both endpoints as inclusive, matching the
    paper's span-inclusion rule (a kernel launched at exactly the layer's
    start timestamp belongs to that layer).
    """

    start: int
    end: int
    data: T = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} precedes start {self.start}")

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains_point(self, point: int) -> bool:
        return self.start <= point <= self.end

    def contains_interval(self, other: "Interval[Any]") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Interval[Any]") -> bool:
        return self.start <= other.end and other.start <= self.end


@dataclass
class _Node(Generic[T]):
    center: int
    # Intervals crossing `center`, sorted by start ascending / end descending,
    # with their endpoint arrays precomputed for bisection.
    by_start: List[Interval[T]] = field(default_factory=list)
    by_end: List[Interval[T]] = field(default_factory=list)
    starts: List[int] = field(default_factory=list)  # by_start[i].start
    neg_ends: List[int] = field(default_factory=list)  # -by_end[i].end (asc)
    left: Optional["_Node[T]"] = None
    right: Optional["_Node[T]"] = None


class IntervalTree(Generic[T]):
    """Static centered interval tree.

    Built once from an iterable of :class:`Interval`; supports:

    * :meth:`stab` — all intervals containing a point,
    * :meth:`containing` — all intervals containing a query interval,
    * :meth:`overlapping` — all intervals overlapping a query interval.
    """

    def __init__(self, intervals: Iterable[Interval[T]] = ()) -> None:
        self._intervals: list[Interval[T]] = list(intervals)
        self._root = self._build(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval[T]]:
        return iter(self._intervals)

    # -- construction ----------------------------------------------------
    @staticmethod
    def _build(intervals: list[Interval[T]]) -> Optional[_Node[T]]:
        """Iterative centered-tree construction (explicit work stack)."""
        if not intervals:
            return None
        root = _Node(center=0)  # placeholder; filled by the first work item
        work: list[tuple[list[Interval[T]], _Node[T]]] = [(intervals, root)]
        while work:
            ivs, node = work.pop()
            endpoints = sorted({iv.start for iv in ivs} | {iv.end for iv in ivs})
            center = endpoints[len(endpoints) // 2]
            crossing: list[Interval[T]] = []
            lefts: list[Interval[T]] = []
            rights: list[Interval[T]] = []
            for iv in ivs:
                if iv.end < center:
                    lefts.append(iv)
                elif iv.start > center:
                    rights.append(iv)
                else:
                    crossing.append(iv)
            node.center = center
            node.by_start = sorted(crossing, key=lambda iv: iv.start)
            node.by_end = sorted(crossing, key=lambda iv: -iv.end)
            node.starts = [iv.start for iv in node.by_start]
            node.neg_ends = [-iv.end for iv in node.by_end]
            if lefts:
                node.left = _Node(center=0)
                work.append((lefts, node.left))
            if rights:
                node.right = _Node(center=0)
                work.append((rights, node.right))
        return root

    # -- queries ----------------------------------------------------------
    def stab(self, point: int) -> list[Interval[T]]:
        """All intervals containing ``point`` (inclusive endpoints)."""
        out: list[Interval[T]] = []
        node = self._root
        while node is not None:
            if point < node.center:
                # Crossing intervals sorted by start: those starting <= point
                # necessarily contain the point (they all end >= center > point).
                idx = bisect.bisect_right(node.starts, point)
                out.extend(node.by_start[:idx])
                node = node.left
            elif point > node.center:
                # Sorted by end descending: those ending >= point contain it.
                idx = bisect.bisect_right(node.neg_ends, -point)
                out.extend(node.by_end[:idx])
                node = node.right
            else:
                out.extend(node.by_start)
                node = None
        return out

    def containing(self, query: Interval[Any]) -> list[Interval[T]]:
        """All intervals that fully contain ``query``."""
        qs, qe = query.start, query.end
        out: list[Interval[T]] = []
        node = self._root
        while node is not None:
            if qs < node.center:
                # Crossing intervals with start <= qs contain the stab point;
                # keep those whose end also reaches qe.
                idx = bisect.bisect_right(node.starts, qs)
                for iv in node.by_start[:idx]:
                    if iv.end >= qe:
                        out.append(iv)
                node = node.left
            elif qs > node.center:
                # All crossing intervals start <= center < qs; keep those
                # whose end reaches qe (>= qe implies >= qs here).
                idx = bisect.bisect_right(node.neg_ends, -qe)
                out.extend(node.by_end[:idx])
                node = node.right
            else:
                idx = bisect.bisect_right(node.neg_ends, -qe)
                out.extend(node.by_end[:idx])
                node = None
        return out

    def overlapping(self, query: Interval[Any]) -> list[Interval[T]]:
        """All intervals overlapping ``query`` (inclusive endpoints)."""
        out: list[Interval[T]] = []
        root = self._root
        if root is None:
            return out
        stack = [root]
        while stack:
            node = stack.pop()
            if query.start <= node.center <= query.end:
                out.extend(node.by_start)
                if node.left is not None:
                    stack.append(node.left)
                if node.right is not None:
                    stack.append(node.right)
            elif query.end < node.center:
                # Crossing intervals start <= center; they overlap iff
                # start <= query.end.
                idx = bisect.bisect_right(node.starts, query.end)
                out.extend(node.by_start[:idx])
                if node.left is not None:
                    stack.append(node.left)
            else:  # query.start > node.center
                idx = bisect.bisect_right(node.neg_ends, -query.start)
                out.extend(node.by_end[:idx])
                if node.right is not None:
                    stack.append(node.right)
        return out

    # -- helpers -----------------------------------------------------------
    def tightest_containing(self, query: Interval[Any]) -> Optional[Interval[T]]:
        """The smallest-length interval containing ``query``, or ``None``."""
        candidates = self.containing(query)
        if not candidates:
            return None
        return min(candidates, key=lambda iv: (iv.length, iv.start))


def tree_reconstruct_parents(
    trace: Trace, *, strict: bool = True
) -> CorrelationResult:
    """``reconstruct_parents`` by per-orphan containment queries.

    Candidates depend only on static interval data, not on assignment
    order, so this pass and the sweep agree on every assignment —
    including which span first trips ``AmbiguousParentError`` in strict
    mode.
    """
    result = CorrelationResult()
    index = trace.index
    table = trace.table
    levels = index.levels_present()
    starts = table.start_ns
    ends = table.end_ns
    parents = table.parent_id
    span_ids = table.span_id
    trees = {
        int(lvl): IntervalTree(
            Interval(starts[row], ends[row], row)
            for row in index.level_rows().get(lvl, ())
        )
        for lvl in levels
    }
    parent_code_of = {
        int(lvl): (None if up is None else int(up))
        for lvl, up in _parent_level_map(levels).items()
    }
    try:
        for row in index.rows_sorted():
            if parents[row] != NONE_ID or table.kind[row] == _EXECUTION_CODE:
                continue
            target = parent_code_of.get(table.level[row])
            if target is None:
                continue
            candidates = [
                iv.data
                for iv in trees[target].containing(
                    Interval(starts[row], ends[row])
                )
                if iv.data != row
            ]
            if not candidates:
                continue
            chosen = _choose_parent(
                table, row, candidates, strict=strict, result=result
            )
            if chosen is not None:
                parents[row] = span_ids[chosen]
                result.assigned[span_ids[row]] = span_ids[chosen]
    finally:
        trace.touch_parents()
    return result

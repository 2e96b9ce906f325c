"""Offline correlation of across-stack spans.

Two reconstruction problems are solved here, following paper Sec. III-A/B:

1. **Parent-child reconstruction.**  Disjoint profilers cannot annotate
   children with their parents (e.g. GPU kernel spans with layer spans).
   XSP checks interval set inclusion over candidate parent spans and
   assigns each orphan span the *tightest* span at the next-higher stack
   level whose interval contains it.  If several mutually-overlapping
   candidates contain a span (parallel events), its parentage is
   *ambiguous* and a serialized re-run (``CUDA_LAUNCH_BLOCKING=1``) is
   required.

2. **Launch/execution correlation.**  Asynchronous GPU kernels appear as a
   host-side *launch span* and a device-side *execution span* carrying the
   same ``correlation_id``.  The execution span takes its parent from the
   launch span (the launch happens inside the layer; the execution may
   complete after the layer returns) and keeps the performance
   information.  The merged kernel view is the profile's
   :class:`~repro.core.pipeline.KernelTable`, derived from the execution
   rows.

Both passes consume the trace's columnar storage directly — row indices
over ``(start_ns, end_ns, level, kind, parent_id)`` columns snapshotted
as plain lists — and write assignments back into the ``parent_id``
column.  Span objects are materialized only at the error/reporting
boundary (:class:`AmbiguousParentError`, ``CorrelationResult.ambiguous``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List

from repro.tracing.span import Level, SpanKind
from repro.tracing.table import _KIND_CODE, NONE_ID, SpanTable, SpanView
from repro.tracing.trace import Trace

_EXECUTION_CODE = _KIND_CODE[SpanKind.EXECUTION]
_LAUNCH_CODE = _KIND_CODE[SpanKind.LAUNCH]


class AmbiguousParentError(RuntimeError):
    """Raised when parallel events make parent assignment ambiguous.

    The remedy, per the paper, is another profiling run with parallel
    events serialized (e.g. ``CUDA_LAUNCH_BLOCKING=1`` for CUDA or
    ``OMP_NUM_THREADS=1`` for OpenMP).
    """

    def __init__(self, span, candidates: list) -> None:
        self.span = span
        self.candidates = candidates
        names = ", ".join(c.name for c in candidates[:4])
        super().__init__(
            f"span {span.name!r} [{span.start_ns}, {span.end_ns}] has "
            f"{len(candidates)} overlapping candidate parents ({names}); "
            "re-run with serialized execution (CUDA_LAUNCH_BLOCKING=1) to "
            "disambiguate"
        )


@dataclass
class CorrelationResult:
    """Output of :func:`reconstruct_parents`."""

    #: span_id -> assigned parent span_id (only for spans assigned here)
    assigned: dict[int, int] = field(default_factory=dict)
    #: spans whose parentage was ambiguous (when ``strict=False``)
    ambiguous: list[SpanView] = field(default_factory=list)

    @property
    def needs_serialized_rerun(self) -> bool:
        return bool(self.ambiguous)


def correlate_launch_execution(trace: Trace) -> int:
    """Pair launch/execution spans by ``correlation_id``; returns the
    number of pairs.

    Execution spans inherit the launch span's parent, mirroring how XSP
    "uses the launch span's parent as the parent of the asynchronous
    function and uses the execution span to get the performance
    information".  One pass over the correlation-id/kind columns up to
    the trace's watermark maps each kind's correlation ids to rows; a
    correlation id on two launches or two executions raises ValueError.
    """
    table = trace.table
    n = table.watermark
    launches: dict[int, int] = {}
    executions: dict[int, int] = {}
    of_kind = {_LAUNCH_CODE: launches, _EXECUTION_CODE: executions}
    for row, cid, code in zip(range(n), table.correlation_id[:n],
                              table.kind[:n]):
        rows = of_kind.get(code)
        if rows is None or cid == NONE_ID:
            continue
        if cid in rows:
            kind = "launch" if rows is launches else "execution"
            raise ValueError(
                f"duplicate {kind} span for correlation_id={cid}"
            )
        rows[cid] = row

    # Half-pairs are skipped: a lost activity record (CUPTI permits this)
    # or, on a live capture, a counterpart yet to be published.
    paired = launches.keys() & executions.keys()
    parents = table.parent_id
    for cid in paired:
        execution_row = executions[cid]
        if parents[execution_row] == NONE_ID:
            parents[execution_row] = parents[launches[cid]]
    trace.touch_parents()
    return len(paired)


def _parent_level_map(levels: list[Level]) -> dict[Level, Level | None]:
    """For each present level, the closest present level above it."""
    ordered = sorted(levels)
    out: dict[Level, Level | None] = {}
    for i, lvl in enumerate(ordered):
        out[lvl] = ordered[i - 1] if i > 0 else None
    return out


def reconstruct_parents(trace: Trace, *, strict: bool = True) -> CorrelationResult:
    """Assign parents to orphan spans via interval containment.

    Only spans on the *host* timeline participate as children directly:
    device-side execution spans receive their parent through
    :func:`correlate_launch_execution` (which must run afterwards or the
    execution spans stay parentless until merged).  For each orphan span,
    candidate parents are spans one present-level higher whose interval
    contains the orphan's interval; the tightest nested candidate wins.

    ``strict=True`` raises :class:`AmbiguousParentError` on parallel-event
    ambiguity; ``strict=False`` records ambiguous spans in the result so a
    caller can trigger the serialized re-run.

    Spans that already have a parent keep it, so re-running the pass over
    a grown capture assigns only the rows still orphaned — including a
    child that arrived before its parent on an earlier pass.
    """
    result = CorrelationResult()
    try:
        _reconstruct_sweep(trace, strict=strict, result=result)
    finally:
        # parent_id fields changed (possibly partially, when strict mode
        # raised); drop the trace's parent-derived indexes either way.
        trace.touch_parents()
    return result


def _reconstruct_sweep(
    trace: Trace,
    *,
    strict: bool,
    result: CorrelationResult,
) -> None:
    """One sweep over start-sorted rows.

    For each present level the sweep keeps an *active-parent stack*: the
    rows at that level whose interval is still open at the sweep
    position, pushed in start order.  When an orphan at level ``c`` is
    processed, every level-``parent_of[c]`` row starting at or before the
    orphan has been admitted to that level's stack, expired entries
    (ending before the orphan starts) have been popped, and the orphan's
    candidate parents are exactly the stack entries whose end reaches the
    orphan's end — the same containment set a per-orphan interval-tree
    query returns, without the queries or their list churn.

    The stack is a deque expired from both ends: sequential same-level
    spans (the dominant layer pattern — ends increasing in push order)
    expire from the front, nested spans (ends decreasing) from the back.
    Non-monotonic overlap patterns can strand dead entries in the
    interior; the candidate scan counts them and compacts the deque the
    moment it sees one, so each row is swept out at most once and the
    stack never holds more than the true concurrent-overlap depth for
    long.  Stranded entries are harmless for correctness meanwhile — a
    candidate needs ``end >= orphan.end`` while expiry means
    ``end < orphan.start``.

    All interval data is snapshotted into plain lists up front (boxed
    once, O(n)); the sweep itself is pure list indexing.
    """
    index = trace.index
    table = trace.table
    levels = index.levels_present()
    parent_of_level = _parent_level_map(levels)

    # Columns snapshotted as lists: each value boxed exactly once.  The
    # parent column is written through `parents_col` as rows are
    # assigned; the snapshot stays valid because each orphan row is
    # visited once and only ever assigns to itself.
    starts = table.start_ns.tolist()
    ends = table.end_ns.tolist()
    kinds = table.kind.tolist()
    level_codes = table.level.tolist()
    span_ids = table.span_id.tolist()
    parents = table.parent_id.tolist()
    parents_col = table.parent_id

    # Per-level admission cursor into the level's start-sorted row array.
    # Only levels that can actually parent something are materialized (the
    # deepest level's bucket — usually the kernel-dominated bulk of the
    # trace — never needs sorting).
    parent_levels = {lvl for lvl in parent_of_level.values() if lvl is not None}
    cursors: dict[int, int] = {int(lvl): 0 for lvl in parent_levels}
    actives: dict[int, deque[int]] = {int(lvl): deque() for lvl in parent_levels}
    arrays: dict[int, list[int]] = {
        int(lvl): index.level_rows_sorted(lvl) for lvl in parent_levels
    }
    parent_code_of: dict[int, int | None] = {
        int(lvl): (None if up is None else int(up))
        for lvl, up in parent_of_level.items()
    }

    for row in index.rows_sorted():
        if parents[row] != NONE_ID:
            continue
        if kinds[row] == _EXECUTION_CODE:
            continue  # handled by launch/execution correlation
        target = parent_code_of.get(level_codes[row])
        if target is None:
            continue  # top-of-stack spans legitimately have no parent
        start = starts[row]
        end = ends[row]
        # Admit parents whose interval can reach back to this orphan.  The
        # cursor is independent of the global sweep position so that a
        # parent sharing the orphan's (start, -duration) sort key is
        # admitted regardless of tie-break order.
        arr = arrays[target]
        cur = cursors[target]
        active = actives[target]
        n = len(arr)
        while cur < n and starts[arr[cur]] <= start:
            active.append(arr[cur])
            cur += 1
        cursors[target] = cur
        # Expire parents that ended before this orphan started.
        while active and ends[active[0]] < start:
            active.popleft()
        while active and ends[active[-1]] < start:
            active.pop()
        if not active:
            continue
        candidates = []
        stranded = 0
        for p in active:
            p_end = ends[p]
            if p_end < start:
                stranded += 1
            elif p_end >= end and p != row:
                candidates.append(p)
        if stranded:
            actives[target] = deque(p for p in active if ends[p] >= start)
        if not candidates:
            continue
        chosen = _choose_parent(
            table, row, candidates, strict=strict, result=result
        )
        if chosen is not None:
            chosen_id = span_ids[chosen]
            parents[row] = chosen_id
            parents_col[row] = chosen_id
            result.assigned[span_ids[row]] = chosen_id


def _choose_parent(
    table: SpanTable,
    row: int,
    candidates: List[int],
    *,
    strict: bool,
    result: CorrelationResult,
) -> int | None:
    """Pick the tightest strictly-nested candidate row, or flag ambiguity."""
    if len(candidates) == 1:
        return candidates[0]
    # Multiple containing candidates: fine if they are strictly nested
    # (pick the tightest); ambiguous if any two merely overlap — including
    # the identical-interval case (two parallel layers spanning the same
    # window), which only a serialized re-run can resolve.
    starts = table.start_ns
    ends = table.end_ns
    ordered = sorted(
        candidates, key=lambda r: (ends[r] - starts[r], starts[r])
    )
    for i, outer in enumerate(ordered):
        outer_bounds = (starts[outer], ends[outer])
        for inner in ordered[:i]:
            strictly_nested = (
                outer_bounds[0] <= starts[inner]
                and ends[inner] <= outer_bounds[1]
                and outer_bounds != (starts[inner], ends[inner])
            )
            if not strictly_nested:
                span = SpanView(table, row)
                if strict:
                    raise AmbiguousParentError(
                        span, [SpanView(table, c) for c in candidates]
                    )
                result.ambiguous.append(span)
                return None
    return ordered[0]

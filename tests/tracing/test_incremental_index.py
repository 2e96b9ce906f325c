"""Incremental index maintenance: the no-rebuild-on-append contract.

PR 5's tentpole: appending spans to a trace must not invalidate its
``TraceIndex`` — the next query *advances* the index, merge-sorting the
pending tail into the built structures.  These tests guard the contract
directly (`k` appends followed by queries cost at most one cold build,
ever) and check the maintained structures stay identical to a cold
rebuild, including the gap folds and re-correlation of a growing
capture layered on top.
"""

from __future__ import annotations

import random

import pytest

import repro.tracing.index as index_mod
from repro.core.pipeline import profile_from_trace
from repro.tracing import (
    Level,
    Span,
    SpanKind,
    Trace,
    correlate_launch_execution,
    reconstruct_parents,
)
from repro.tracing.table import NONE_ID, row_of


def _span(i: int, start: int, end: int, level=Level.GPU_KERNEL, **kwargs):
    return Span(f"s{i % 4}", start, end, level, span_id=i, **kwargs)


def _count_cold_builds(monkeypatch):
    """Patch the module's timeline sort to count *cold* (full) builds."""
    calls = {"cold": 0}
    original = index_mod._timeline_rows

    def counting(table, rows=None, *, n=None):
        if rows is None:
            calls["cold"] += 1
        return original(table, rows, n=n)

    monkeypatch.setattr(index_mod, "_timeline_rows", counting)
    return calls


def test_k_appends_and_queries_cost_one_cold_build(monkeypatch):
    """The interleaved add/query pathology: k single-span appends each
    followed by a query must not cost k full index rebuilds."""
    trace = Trace(trace_id=1)
    for i in range(1, 201):
        trace.add(_span(i, 10 * i, 10 * i + 8))
    calls = _count_cold_builds(monkeypatch)
    trace.index.rows_sorted()  # the one cold build
    assert calls["cold"] == 1
    index_before = trace.index
    for i in range(201, 251):
        trace.add(_span(i, 10 * i, 10 * i + 8))
        assert trace.index.rows_sorted()[-1] == i - 1
        assert trace.index.row_by_id()[i] == i - 1
    assert calls["cold"] == 1  # 50 appendsx queries, zero extra rebuilds
    assert trace.index is index_before  # same index object, advanced


def test_append_then_query_matches_cold_rebuild():
    rng = random.Random(5)
    trace = Trace(trace_id=1)
    for i in range(1, 401):
        start = rng.randint(0, 50_000)
        trace.add(
            _span(
                i,
                start,
                start + rng.randint(1, 2_000),
                rng.choice(list(Level)),
                kind=rng.choice(list(SpanKind)),
            )
        )
        if i % 61 == 0:
            trace.index.rows_sorted()  # keep the index live mid-growth
            trace.gaps(Level.GPU_KERNEL)
    incremental = {
        "sorted": list(trace.index.rows_sorted()),
        "gaps": trace.gaps(Level.GPU_KERNEL),
        "extent": trace.span_extent_ns(),
        "levels": trace.levels_present(),
    }
    trace.invalidate_index()
    cold = {
        "sorted": list(trace.index.rows_sorted()),
        "gaps": trace.gaps(Level.GPU_KERNEL),
        "extent": trace.span_extent_ns(),
        "levels": trace.levels_present(),
    }
    assert incremental == cold


def test_in_order_appends_extend_gap_list_in_place():
    """Time-ordered appends continue the gap fold — the cached list
    object is extended, never recomputed from scratch."""
    trace = Trace(trace_id=1)
    trace.add(_span(1, 0, 10))
    trace.add(_span(2, 20, 30))
    gaps = trace.index.gaps(Level.GPU_KERNEL)
    assert [(g.start_ns, g.end_ns) for g in gaps] == [(10, 20)]
    trace.add(_span(3, 50, 60))
    gaps_after = trace.index.gaps(Level.GPU_KERNEL)
    assert gaps_after is gaps  # same list, folded forward
    assert [(g.start_ns, g.end_ns) for g in gaps] == [(10, 20), (30, 50)]
    assert [g.before_id for g in gaps] == [1, 2]


def test_out_of_order_append_rebuilds_gap_key_correctly():
    """A span landing before already-folded rows can split or fill a
    gap; the key falls back to a recompute and stays correct."""
    trace = Trace(trace_id=1)
    trace.add(_span(1, 0, 10))
    trace.add(_span(2, 100, 110))
    assert [(g.start_ns, g.end_ns) for g in trace.gaps(Level.GPU_KERNEL)] == [
        (10, 100)
    ]
    trace.add(_span(3, 40, 60))  # fills the middle of the recorded gap
    assert [(g.start_ns, g.end_ns) for g in trace.gaps(Level.GPU_KERNEL)] == [
        (10, 40),
        (60, 100),
    ]
    trace.invalidate_index()
    assert [(g.start_ns, g.end_ns) for g in trace.gaps(Level.GPU_KERNEL)] == [
        (10, 40),
        (60, 100),
    ]


def test_new_span_id_resolves_dangling_parent_root():
    """An append can resolve an existing span's dangling parent_id (it
    becomes a real span id) — the next profile must notice."""
    trace = Trace(trace_id=1)
    trace.add(_span(1, 10, 20, parent_id=99, kind=SpanKind.EXECUTION))
    assert len(profile_from_trace(trace).kernel_table) == 0  # parent unknown
    trace.add(_span(99, 0, 100, Level.LAYER))
    assert profile_from_trace(trace).kernel_table.name == ["s1"]
    assert trace.index.row_by_id() == {1: 0, 99: 1}
    assert trace.table.parent_id[0] == 99


def test_watermark_tracks_completed_appends():
    trace = Trace(trace_id=1)
    assert trace.watermark == 0
    trace.add(_span(1, 0, 5))
    assert trace.watermark == 1 == len(trace)
    trace.add_rows([row_of("r", 5, 9, Level.MODEL, 2)])
    assert trace.watermark == 2
    assert trace.index.covered == 2


def _python_timeline(trace: Trace, rows):
    """Two stable Python sorts: end descending, then start ascending."""
    table = trace.table
    rows = sorted(rows, key=table.end_ns.__getitem__, reverse=True)
    return sorted(rows, key=table.start_ns.__getitem__)


def test_numpy_builds_match_python_references():
    """The numpy builds (cold, per-level subset, advanced tail) agree
    with plain Python: stable sorts for the orderings, loops for the
    partitions and the extent, ties included."""
    rng = random.Random(3)
    levels = (Level.LAYER, Level.GPU_KERNEL)

    def spans(ids):
        for i in ids:
            start = rng.randint(0, 20)
            yield _span(i, start, start + rng.randint(0, 3),
                        rng.choice(levels), kind=rng.choice(list(SpanKind)))

    trace = Trace(trace_id=1)
    trace.extend(spans(range(1, 300)))
    for _ in range(2):  # cold, then advanced over a tail
        index, table = trace.index, trace.table
        rows = range(len(trace))
        assert index.rows_sorted() == _python_timeline(trace, rows)
        for level in levels:
            members = [r for r in rows if table.level_of(r) == level]
            assert index.level_rows()[level] == members
            assert index.level_rows_sorted(level) == _python_timeline(
                trace, members
            )
        assert index.kind_rows() == {
            kind: [r for r in rows if table.kind_of(r) == kind]
            for kind in {table.kind_of(r) for r in rows}
        }
        assert index.extent_ns() == (min(table.start_ns), max(table.end_ns))
        trace.extend(spans(range(300, 340)))


def test_levels_present_follows_appends():
    trace = Trace(trace_id=1)
    assert trace.levels_present() == []
    trace.add(_span(1, 0, 5, Level.GPU_KERNEL))
    assert trace.levels_present() == [Level.GPU_KERNEL]
    trace.add(_span(2, 0, 9, Level.MODEL))
    assert trace.levels_present() == [Level.MODEL, Level.GPU_KERNEL]


def test_empty_trace_answers_every_query():
    trace = Trace(trace_id=1)
    assert trace.index.rows_sorted() == []
    assert trace.at_level(Level.LAYER) == []
    assert trace.by_id() == {}
    assert trace.index.kind_rows() == {}
    assert trace.span_extent_ns() == (0, 0)
    assert trace.index.level_extent_ns(Level.LAYER) is None


def test_query_results_are_new_lists_of_views():
    """Callers get fresh containers; emptying them leaves the index
    intact."""
    trace = Trace(trace_id=1)
    trace.extend([_span(1, 0, 100, Level.LAYER), _span(2, 10, 20)])
    trace.spans[1].parent_id = 1
    trace.touch_parents()
    for query in (trace.by_id, lambda: trace.at_level(Level.LAYER)):
        first = query()
        first.clear()
        assert query() and query() is not first
    assert list(trace.table.parent_id) == [NONE_ID, 1]


# -- re-correlating a growing capture ---------------------------------------


def _layer_with_kernels(layer_id: int, start: int, n_kernels: int, sid: int):
    """One layer span followed by its launch/execution kernel pairs."""
    spans = [
        Span(f"layer{layer_id}", start, start + 10_000, Level.LAYER,
             span_id=sid)
    ]
    sid += 1
    cursor = start + 100
    for _ in range(n_kernels):
        cid = sid
        spans.append(
            Span("k", cursor, cursor + 50, Level.GPU_KERNEL, span_id=sid,
                 kind=SpanKind.LAUNCH, correlation_id=cid)
        )
        sid += 1
        spans.append(
            Span("k", cursor + 25, cursor + 400, Level.GPU_KERNEL,
                 span_id=sid, kind=SpanKind.EXECUTION, correlation_id=cid)
        )
        sid += 1
        cursor += 500
    return spans, sid


def _streamed_capture():
    """Batches shaped like streaming ingest: each batch is one complete
    evaluation chunk (parents arrive with or before their children)."""
    batches = []
    sid = 1
    for layer_id in range(6):
        spans, sid = _layer_with_kernels(layer_id, layer_id * 20_000, 4, sid)
        batches.append(spans)
    return batches


def test_incremental_correlation_matches_cold():
    batches = _streamed_capture()

    # Cold reference: everything at once.
    cold = Trace(trace_id=1)
    for batch in batches:
        cold.extend(
            Span(s.name, s.start_ns, s.end_ns, s.level, span_id=s.span_id,
                 kind=s.kind, correlation_id=s.correlation_id)
            for s in batch
        )
    cold_result = reconstruct_parents(cold, strict=False)
    cold_pairs = correlate_launch_execution(cold)

    # Live: a cold pass over the whole capture after every batch.
    live = Trace(trace_id=2)
    assigned: dict[int, int] = {}
    for batch in batches:
        live.extend(batch)
        result = reconstruct_parents(live, strict=False)
        assigned.update(result.assigned)
        pairs = correlate_launch_execution(live)

    assert assigned == cold_result.assigned
    assert pairs == cold_pairs == 6 * 4
    assert list(live.table.parent_id) == list(cold.table.parent_id)


def test_incremental_correlation_pairs_across_increments():
    """A launch whose execution arrives in a later increment merges
    once the pair completes."""
    trace = Trace(trace_id=1)
    trace.add(Span("k", 0, 10, Level.GPU_KERNEL, span_id=1,
                   kind=SpanKind.LAUNCH, correlation_id=7))
    assert correlate_launch_execution(trace) == 0
    trace.add(Span("k", 5, 40, Level.GPU_KERNEL, span_id=2,
                   kind=SpanKind.EXECUTION, correlation_id=7))
    assert correlate_launch_execution(trace) == 1


def test_incremental_duplicate_launch_detected_across_increments():
    trace = Trace(trace_id=1)
    trace.add(Span("k", 0, 10, Level.GPU_KERNEL, span_id=1,
                   kind=SpanKind.LAUNCH, correlation_id=9))
    correlate_launch_execution(trace)
    trace.add(Span("k", 20, 30, Level.GPU_KERNEL, span_id=2,
                   kind=SpanKind.LAUNCH, correlation_id=9))
    with pytest.raises(ValueError, match="duplicate launch"):
        correlate_launch_execution(trace)

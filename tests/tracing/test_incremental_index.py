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
from repro.tracing import (
    Level,
    Span,
    SpanKind,
    Trace,
    correlate_launch_execution,
    reconstruct_parents,
)


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
    trace.sorted_spans()  # the one cold build
    assert calls["cold"] == 1
    index_before = trace.index
    for i in range(201, 251):
        trace.add(_span(i, 10 * i, 10 * i + 8))
        assert trace.sorted_spans()[-1].span_id == i
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
            trace.sorted_spans()  # keep the index live mid-growth
            trace.gaps(Level.GPU_KERNEL)
    incremental = {
        "sorted": [s.span_id for s in trace.sorted_spans()],
        "gaps": trace.gaps(Level.GPU_KERNEL),
        "roots": [s.span_id for s in trace.roots()],
        "extent": trace.span_extent_ns(),
        "levels": trace.levels_present(),
    }
    trace.invalidate_index()
    cold = {
        "sorted": [s.span_id for s in trace.sorted_spans()],
        "gaps": trace.gaps(Level.GPU_KERNEL),
        "roots": [s.span_id for s in trace.roots()],
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
    """An append can turn an existing root into a child (its dangling
    parent_id becomes a real span id) — the advance must notice."""
    trace = Trace(trace_id=1)
    trace.add(_span(1, 10, 20, parent_id=99))
    assert [s.span_id for s in trace.roots()] == [1]  # parent unknown
    trace.add(_span(99, 0, 100, Level.LAYER))
    assert [s.span_id for s in trace.roots()] == [99]
    assert [c.span_id for c in trace.children_of(trace.by_id()[99])] == [1]


def test_watermark_tracks_completed_appends():
    trace = Trace(trace_id=1)
    assert trace.watermark == 0
    trace.add(_span(1, 0, 5))
    assert trace.watermark == 1 == len(trace)
    trace.add_row(name="r", start_ns=5, end_ns=9, level=Level.MODEL, span_id=2)
    assert trace.watermark == 2
    assert trace.index.covered == 2


def test_pure_python_advance_matches_numpy(monkeypatch):
    """The advance path is index-representation agnostic: grow two
    traces identically, one with numpy cold builds and one without."""
    rng = random.Random(17)
    spans = []
    for i in range(1, 301):
        start = rng.randint(0, 30_000)
        spans.append(
            _span(i, start, start + rng.randint(1, 900),
                  rng.choice(list(Level)), kind=rng.choice(list(SpanKind)))
        )

    def grow(trace):
        out = []
        for i, s in enumerate(spans):
            trace.add(
                Span(s.name, s.start_ns, s.end_ns, s.level,
                     span_id=s.span_id, kind=s.kind)
            )
            if i % 41 == 0:
                out.append([v.span_id for v in trace.sorted_spans()])
        out.append([v.span_id for v in trace.sorted_spans()])
        out.append(trace.span_extent_ns())
        return out

    accelerated = grow(Trace(trace_id=1))
    monkeypatch.setattr(index_mod, "_np", None)
    fallback = grow(Trace(trace_id=2))
    assert fallback == accelerated


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
    cold_kernels = correlate_launch_execution(cold)

    # Live: a cold pass over the whole capture after every batch.
    live = Trace(trace_id=2)
    assigned: dict[int, int] = {}
    for batch in batches:
        live.extend(batch)
        result = reconstruct_parents(live, strict=False)
        assigned.update(result.assigned)
        kernels = correlate_launch_execution(live)

    assert assigned == cold_result.assigned
    assert [k.correlation_id for k in kernels] == [
        k.correlation_id for k in cold_kernels
    ]
    assert [k.parent_id for k in kernels] == [
        k.parent_id for k in cold_kernels
    ]
    assert list(live.table.parent_id) == list(cold.table.parent_id)


def test_incremental_correlation_pairs_across_increments():
    """A launch whose execution arrives in a later increment merges
    once the pair completes."""
    trace = Trace(trace_id=1)
    trace.add(Span("k", 0, 10, Level.GPU_KERNEL, span_id=1,
                   kind=SpanKind.LAUNCH, correlation_id=7))
    assert correlate_launch_execution(trace) == []
    trace.add(Span("k", 5, 40, Level.GPU_KERNEL, span_id=2,
                   kind=SpanKind.EXECUTION, correlation_id=7))
    assert [k.correlation_id for k in correlate_launch_execution(trace)] == [7]


def test_incremental_duplicate_launch_detected_across_increments():
    trace = Trace(trace_id=1)
    trace.add(Span("k", 0, 10, Level.GPU_KERNEL, span_id=1,
                   kind=SpanKind.LAUNCH, correlation_id=9))
    correlate_launch_execution(trace)
    trace.add(Span("k", 20, 30, Level.GPU_KERNEL, span_id=2,
                   kind=SpanKind.LAUNCH, correlation_id=9))
    with pytest.raises(ValueError, match="duplicate launch"):
        correlate_launch_execution(trace)

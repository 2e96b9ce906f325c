"""TraceIndex: indexed queries agree with naive scans and survive mutation."""

import random

from repro.core.pipeline import profile_from_trace
from repro.tracing import Level, Span, SpanKind, Trace
from repro.tracing.correlation import reconstruct_parents
from repro.tracing.table import NONE_ID


def _random_trace(n=120, seed=5):
    rng = random.Random(seed)
    t = Trace(trace_id=1)
    for i in range(1, n + 1):
        start = rng.randint(0, 10_000)
        end = start + rng.randint(0, 2_000)
        level = rng.choice(list(Level))
        kind = rng.choice(list(SpanKind))
        parent = rng.choice([None, rng.randint(1, n)])
        t.add(Span(f"s{i}", start, end, level, span_id=i, parent_id=parent,
                   kind=kind))
    return t


def test_indexed_queries_match_naive_scans():
    t = _random_trace()
    spans = t.spans
    assert [spans[r] for r in t.index.rows_sorted()] == sorted(
        spans, key=lambda s: (s.start_ns, -s.duration_ns)
    )
    for level in Level:
        assert t.at_level(level) == [s for s in spans if s.level == level]
    for kind in SpanKind:
        assert [t.spans[r] for r in t.index.kind_rows().get(kind, [])] == [
            s for s in spans if s.kind == kind
        ]
    assert t.by_id() == {s.span_id: s for s in spans}
    assert t.levels_present() == sorted({s.level for s in spans})
    assert t.span_extent_ns() == (
        min(s.start_ns for s in spans),
        max(s.end_ns for s in spans),
    )
    assert [None if p == NONE_ID else p for p in t.table.parent_id] == [
        s.parent_id for s in spans
    ]


def test_index_is_reused_across_queries():
    t = _random_trace()
    t.index.rows_sorted()
    idx = t.index
    t.at_level(Level.LAYER)
    t.by_id()
    assert t.index is idx  # no rebuild between read-only queries


def test_add_invalidates_index():
    t = _random_trace()
    assert len(t.at_level(Level.MODEL)) == sum(
        1 for s in t.spans if s.level == Level.MODEL
    )
    before = len(t.at_level(Level.MODEL))
    t.add(Span("late", 0, 1, Level.MODEL, span_id=999))
    assert len(t.at_level(Level.MODEL)) == before + 1
    assert t.by_id()[999].name == "late"


def test_direct_table_append_is_caught_by_length_check():
    t = _random_trace()
    t.index.rows_sorted()  # build the index
    t.table.append(Span("sneaky", 0, 5, Level.MODEL, span_id=1000))
    assert 1000 in t.by_id()


def test_returned_containers_are_copies():
    t = _random_trace()
    layer = t.at_level(Level.LAYER)
    n = len(layer)
    layer.clear()  # caller-side mutation must not corrupt the index
    assert len(t.at_level(Level.LAYER)) == n


def test_touch_parents_refreshes_children_and_roots():
    """A parent written by hand moves a root under its new parent: the
    profile derived after ``touch_parents`` sees the kernel's layer."""
    t = Trace(trace_id=1)
    t.add(Span("layer", 0, 100, Level.LAYER, span_id=1))
    t.add(Span("kernel", 10, 20, Level.GPU_KERNEL, span_id=2,
               kind=SpanKind.EXECUTION))
    assert len(profile_from_trace(t).kernel_table) == 0
    t.by_id()[2].parent_id = 1
    t.touch_parents()
    assert t.builder is None
    assert list(t.table.parent_id) == [NONE_ID, 1]
    assert profile_from_trace(t).kernel_table.name == ["kernel"]


def test_reconstruction_updates_parent_indexes_automatically():
    t = Trace(trace_id=1)
    t.add(Span("predict", 0, 1000, Level.MODEL, span_id=1))
    t.add(Span("conv", 100, 500, Level.LAYER, span_id=2))
    # Derive a profile first so the trace holds a builder...
    profile_from_trace(t)
    assert t.builder is not None
    # ...then reconstruct: the correlation pass must drop it.
    reconstruct_parents(t)
    assert t.builder is None
    assert list(t.table.parent_id) == [NONE_ID, 1]


def test_empty_trace_queries():
    t = Trace(trace_id=1)
    assert t.index.rows_sorted() == []
    assert t.at_level(Level.LAYER) == []
    assert t.by_id() == {}
    assert t.levels_present() == []
    assert t.span_extent_ns() == (0, 0)

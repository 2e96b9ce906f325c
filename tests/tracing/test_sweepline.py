"""Sweep-line correlator == interval-tree oracle, on adversarial forests.

``reconstruct_parents`` is one sweep with per-level active-parent
stacks; these tests pin its exact equivalence with per-orphan
interval-tree queries (``interval_tree.tree_reconstruct_parents``) —
parent assignments, ambiguity detection, and strict-mode raises — on
randomly generated span forests that deliberately mix nesting, partial
overlap, identical intervals, touching endpoints, and skipped levels.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from interval_tree import tree_reconstruct_parents

from repro.tracing import (
    AmbiguousParentError,
    Level,
    Span,
    SpanKind,
    Trace,
    reconstruct_parents,
)

LEVELS = [Level.MODEL, Level.LAYER, Level.LIBRARY, Level.GPU_KERNEL]


def _random_forest(rng: random.Random, n_spans: int) -> Trace:
    """A span forest with nested, overlapping, and identical intervals."""
    t = Trace(trace_id=1)
    sid = 0
    horizon = 40 * n_spans
    for _ in range(n_spans):
        sid += 1
        level = rng.choice(LEVELS)
        style = rng.random()
        if style < 0.15 and t.spans:
            # Clone an existing interval (identical-interval ambiguity food).
            other = rng.choice(t.spans)
            start, end = other.start_ns, other.end_ns
        elif style < 0.45 and t.spans:
            # Nest inside an existing span.
            outer = rng.choice(t.spans)
            if outer.duration_ns >= 2:
                start = rng.randint(outer.start_ns, outer.end_ns - 1)
                end = rng.randint(start, outer.end_ns)
            else:
                start, end = outer.start_ns, outer.end_ns
        else:
            start = rng.randint(0, horizon)
            end = start + rng.randint(0, horizon // 4)
        kind = rng.choice(
            [SpanKind.INTERNAL, SpanKind.INTERNAL, SpanKind.LAUNCH,
             SpanKind.EXECUTION]
        )
        t.add(Span(f"s{sid}", start, end, level, span_id=sid, kind=kind))
    return t


def _parents(trace: Trace) -> dict[int, int | None]:
    return {s.span_id: s.parent_id for s in trace.spans}


def _run(reconstruct, trace: Trace, *, strict: bool):
    """(parents, assigned, ambiguous-ids, raised-span-id or None)."""
    try:
        result = reconstruct(trace, strict=strict)
    except AmbiguousParentError as err:
        return (
            _parents(trace),
            None,
            None,
            (err.span.span_id, frozenset(c.span_id for c in err.candidates)),
        )
    return (
        _parents(trace),
        dict(result.assigned),
        [s.span_id for s in result.ambiguous],
        None,
    )


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("seed", range(25))
def test_sweep_matches_tree_on_random_forests(seed, strict):
    rng = random.Random(seed)
    n = rng.randint(2, 200)
    forest_tree = _random_forest(random.Random(seed * 1009 + 1), n)
    forest_sweep = _random_forest(random.Random(seed * 1009 + 1), n)
    assert _parents(forest_tree) == _parents(forest_sweep)  # same input
    out_tree = _run(tree_reconstruct_parents, forest_tree, strict=strict)
    out_sweep = _run(reconstruct_parents, forest_sweep, strict=strict)
    assert out_tree == out_sweep


@settings(max_examples=60, deadline=None)
@given(
    intervals=st.lists(
        st.tuples(
            st.integers(0, 60),
            st.integers(0, 25),
            st.sampled_from(LEVELS),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_sweep_matches_tree_hypothesis(intervals):
    """Tiny coordinate space maximizes identical/touching intervals."""
    def build():
        t = Trace(trace_id=1)
        for i, (start, width, level) in enumerate(intervals, 1):
            t.add(Span(f"s{i}", start, start + width, level, span_id=i))
        return t

    for strict in (False, True):
        t_tree, t_sweep = build(), build()
        assert _run(tree_reconstruct_parents, t_tree, strict=strict) == \
            _run(reconstruct_parents, t_sweep, strict=strict)


def test_sweep_detects_identical_interval_ambiguity():
    t = Trace(trace_id=1)
    t.add(Span("layerA", 0, 500, Level.LAYER, span_id=1))
    t.add(Span("layerB", 0, 500, Level.LAYER, span_id=2))
    t.add(Span("launch", 100, 110, Level.GPU_KERNEL, span_id=3,
               kind=SpanKind.LAUNCH, correlation_id=1))
    result = reconstruct_parents(t, strict=False)
    assert result.needs_serialized_rerun
    assert t.by_id()[3].parent_id is None


def test_sweep_strict_raises_on_partial_overlap():
    t = Trace(trace_id=1)
    t.add(Span("layerA", 0, 500, Level.LAYER, span_id=1))
    t.add(Span("layerB", 100, 700, Level.LAYER, span_id=2))
    t.add(Span("launch", 200, 210, Level.GPU_KERNEL, span_id=3,
               kind=SpanKind.LAUNCH, correlation_id=1))
    with pytest.raises(AmbiguousParentError, match="CUDA_LAUNCH_BLOCKING"):
        reconstruct_parents(t, strict=True)


def test_sweep_picks_tightest_nested_parent():
    t = Trace(trace_id=1)
    t.add(Span("outer", 0, 1000, Level.LAYER, span_id=1))
    t.add(Span("inner", 100, 900, Level.LAYER, span_id=2, parent_id=1))
    t.add(Span("launch", 200, 210, Level.GPU_KERNEL, span_id=3,
               kind=SpanKind.LAUNCH, correlation_id=1))
    reconstruct_parents(t)
    assert t.by_id()[3].parent_id == 2


def test_sweep_handles_sequential_layers_without_stack_growth():
    """Sequential (non-nested) same-level spans expire from the stack front;
    a long trace must not degrade to scanning every dead layer."""
    t = Trace(trace_id=1)
    t.add(Span("predict", 0, 10**9, Level.MODEL, span_id=1))
    sid = 2
    cursor = 0
    expected = {}
    for _ in range(300):
        layer = Span(f"layer{sid}", cursor, cursor + 100, Level.LAYER,
                     span_id=sid)
        t.add(layer)
        launch_id = sid + 1
        t.add(Span(f"launch{launch_id}", cursor + 10, cursor + 20,
                   Level.GPU_KERNEL, span_id=launch_id,
                   kind=SpanKind.LAUNCH, correlation_id=launch_id))
        expected[launch_id] = sid
        cursor += 150
        sid += 2
    reconstruct_parents(t)
    by_id = t.by_id()
    for launch_id, layer_id in expected.items():
        assert by_id[launch_id].parent_id == layer_id


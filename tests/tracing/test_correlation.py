"""Parent reconstruction + launch/execution correlation tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracing import (
    AmbiguousParentError,
    Level,
    Span,
    SpanKind,
    Trace,
    correlate_launch_execution,
    reconstruct_parents,
)


def _nested_trace():
    t = Trace(trace_id=1)
    t.add(Span("predict", 0, 1000, Level.MODEL, span_id=1))
    t.add(Span("conv", 100, 500, Level.LAYER, span_id=2))
    t.add(Span("relu", 500, 800, Level.LAYER, span_id=3))
    t.add(Span("launchA", 150, 160, Level.GPU_KERNEL, span_id=4,
               kind=SpanKind.LAUNCH, correlation_id=1))
    t.add(Span("launchB", 600, 610, Level.GPU_KERNEL, span_id=5,
               kind=SpanKind.LAUNCH, correlation_id=2))
    t.add(Span("kernelA", 200, 400, Level.GPU_KERNEL, span_id=6,
               kind=SpanKind.EXECUTION, correlation_id=1))
    t.add(Span("kernelB", 650, 760, Level.GPU_KERNEL, span_id=7,
               kind=SpanKind.EXECUTION, correlation_id=2))
    return t


def test_layers_get_model_parent():
    t = _nested_trace()
    reconstruct_parents(t)
    assert t.by_id()[2].parent_id == 1
    assert t.by_id()[3].parent_id == 1


def test_launch_spans_get_layer_parent():
    t = _nested_trace()
    reconstruct_parents(t)
    assert t.by_id()[4].parent_id == 2
    assert t.by_id()[5].parent_id == 3


def test_execution_spans_not_parented_by_interval():
    """Execution spans wait for launch/execution correlation."""
    t = _nested_trace()
    reconstruct_parents(t)
    assert t.by_id()[6].parent_id is None


def test_correlate_launch_execution_merges_and_propagates_parent():
    t = _nested_trace()
    reconstruct_parents(t)
    merged = correlate_launch_execution(t)
    assert len(merged) == 2
    kernel_a = next(m for m in merged if m.name == "kernelA")
    assert kernel_a.parent_id == 2  # from the launch span
    assert kernel_a.duration_ns == 200  # from the execution span
    assert t.by_id()[6].parent_id == 2  # propagated onto the exec span


def test_existing_parents_are_preserved():
    t = _nested_trace()
    t.by_id()[2].parent_id = 999  # pre-assigned by the profiler
    reconstruct_parents(t)
    assert t.by_id()[2].parent_id == 999


def test_nested_candidates_pick_tightest():
    t = Trace(trace_id=1)
    t.add(Span("outer", 0, 1000, Level.LAYER, span_id=1))
    t.add(Span("inner", 100, 900, Level.LAYER, span_id=2, parent_id=1))
    # inner is fully nested in outer; the kernel must go to inner.
    t.add(Span("launch", 200, 210, Level.GPU_KERNEL, span_id=3,
               kind=SpanKind.LAUNCH, correlation_id=1))
    result = reconstruct_parents(t)
    assert t.by_id()[3].parent_id == 2
    assert not result.needs_serialized_rerun


def test_parallel_overlap_is_ambiguous_strict_raises():
    t = Trace(trace_id=1)
    t.add(Span("layerA", 0, 500, Level.LAYER, span_id=1))
    t.add(Span("layerB", 100, 700, Level.LAYER, span_id=2))  # overlaps A
    t.add(Span("launch", 200, 210, Level.GPU_KERNEL, span_id=3,
               kind=SpanKind.LAUNCH, correlation_id=1))
    with pytest.raises(AmbiguousParentError, match="CUDA_LAUNCH_BLOCKING"):
        reconstruct_parents(t, strict=True)


def test_parallel_overlap_nonstrict_flags_rerun():
    t = Trace(trace_id=1)
    t.add(Span("layerA", 0, 500, Level.LAYER, span_id=1))
    t.add(Span("layerB", 100, 700, Level.LAYER, span_id=2))
    t.add(Span("launch", 200, 210, Level.GPU_KERNEL, span_id=3,
               kind=SpanKind.LAUNCH, correlation_id=1))
    result = reconstruct_parents(t, strict=False)
    assert result.needs_serialized_rerun
    assert t.by_id()[3].parent_id is None


def test_skipped_levels_bridge_to_nearest_present():
    """With no LAYER level in the trace, kernels parent onto the model."""
    t = Trace(trace_id=1)
    t.add(Span("predict", 0, 1000, Level.MODEL, span_id=1))
    t.add(Span("launch", 100, 110, Level.GPU_KERNEL, span_id=2,
               kind=SpanKind.LAUNCH, correlation_id=1))
    reconstruct_parents(t)
    assert t.by_id()[2].parent_id == 1


def test_duplicate_correlation_ids_rejected():
    t = Trace(trace_id=1)
    t.add(Span("l1", 0, 10, Level.GPU_KERNEL, span_id=1,
               kind=SpanKind.LAUNCH, correlation_id=5))
    t.add(Span("l2", 10, 20, Level.GPU_KERNEL, span_id=2,
               kind=SpanKind.LAUNCH, correlation_id=5))
    with pytest.raises(ValueError, match="duplicate launch"):
        correlate_launch_execution(t)


def test_launch_without_execution_is_skipped():
    t = Trace(trace_id=1)
    t.add(Span("launch", 0, 10, Level.GPU_KERNEL, span_id=1,
               kind=SpanKind.LAUNCH, correlation_id=1))
    assert correlate_launch_execution(t) == []


# -- property-based: reconstruction yields a level-monotone forest ----------


@st.composite
def layered_trace(draw):
    """Random trace with one model span, nested layers, nested launches."""
    t = Trace(trace_id=1)
    t.add(Span("predict", 0, 10_000, Level.MODEL, span_id=1))
    n_layers = draw(st.integers(1, 8))
    cursor = 0
    layer_bounds = []
    for i in range(n_layers):
        width = draw(st.integers(10, 800))
        start = cursor
        end = min(10_000, cursor + width)
        if end <= start:
            break
        t.add(Span(f"layer{i}", start, end, Level.LAYER, span_id=100 + i))
        layer_bounds.append((100 + i, start, end))
        cursor = end + draw(st.integers(0, 50))
    for j in range(draw(st.integers(0, 12))):
        owner = draw(st.sampled_from(layer_bounds))
        _, lo, hi = owner
        if hi - lo < 4:
            continue
        a = draw(st.integers(lo, hi - 2))
        b = draw(st.integers(a + 1, hi))
        t.add(Span(f"launch{j}", a, b, Level.GPU_KERNEL, span_id=200 + j,
                   kind=SpanKind.LAUNCH, correlation_id=j))
    return t


@settings(max_examples=80, deadline=None)
@given(trace=layered_trace())
def test_reconstruction_is_level_monotone_forest(trace):
    reconstruct_parents(trace, strict=True)
    by_id = trace.by_id()
    for span in trace.spans:
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        assert parent.level < span.level
        assert parent.contains(span)
    # No cycles: walking parents always terminates at a root.
    for span in trace.spans:
        seen = set()
        node = span
        while node.parent_id is not None:
            assert node.span_id not in seen
            seen.add(node.span_id)
            node = by_id[node.parent_id]


def test_identical_intervals_are_ambiguous():
    """Two parallel layers spanning the same window cannot disambiguate a
    contained kernel — only a serialized re-run can."""
    t = Trace(trace_id=1)
    t.add(Span("layerA", 0, 500, Level.LAYER, span_id=1))
    t.add(Span("layerB", 0, 500, Level.LAYER, span_id=2))
    t.add(Span("launch", 100, 110, Level.GPU_KERNEL, span_id=3,
               kind=SpanKind.LAUNCH, correlation_id=1))
    result = reconstruct_parents(t, strict=False)
    assert result.needs_serialized_rerun
    assert t.by_id()[3].parent_id is None

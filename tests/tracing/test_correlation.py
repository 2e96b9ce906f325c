"""Parent reconstruction + launch/execution correlation tests."""

import random

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
    assert correlate_launch_execution(t) == 2
    by_id = t.by_id()
    # Each execution span takes its launch span's parent and keeps its
    # own interval.
    assert (by_id[6].parent_id, by_id[7].parent_id) == (2, 3)
    assert by_id[6].duration_ns == 200


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
    assert correlate_launch_execution(t) == 0


# -- seeded fuzz: random launch/execution rows, half of them unpaired -------


def _random_kernel_rows(rng):
    """A trace of launch and execution rows in random order: each
    correlation id has a launch, an execution or both; some executions
    are parented already, and some rows of another kind carry an id."""
    rows, launches, executions = [], {}, {}
    for cid in rng.sample(range(1, 500), rng.randint(0, 60)):
        side = rng.choice(("launch", "execution", "both", "both"))
        if side != "execution":
            launches[cid] = rng.choice((None, 1, 2, 3))
            rows.append(("launch", cid, launches[cid]))
        if side != "launch":
            executions[cid] = rng.choice((None, None, None, 4))
            rows.append(("execution", cid, executions[cid]))
        if rng.random() < 0.1:
            rows.append(("internal", cid, None))
    rng.shuffle(rows)
    kinds = {"launch": SpanKind.LAUNCH, "execution": SpanKind.EXECUTION,
             "internal": SpanKind.INTERNAL}
    t = Trace(trace_id=1)
    for span_id, (kind, cid, parent) in enumerate(rows, start=10):
        t.add(Span(f"{kind}{cid}", span_id, span_id + 1, Level.GPU_KERNEL,
                   span_id=span_id, parent_id=parent, kind=kinds[kind],
                   correlation_id=cid))
    return t, launches, executions


@pytest.mark.parametrize("seed", range(40))
def test_correlation_fuzz_counts_pairs_and_copies_parents(seed):
    rng = random.Random(seed)
    t, launches, executions = _random_kernel_rows(rng)
    before = {(s.kind, s.correlation_id): s.parent_id for s in t.spans}
    paired = launches.keys() & executions.keys()
    assert correlate_launch_execution(t) == len(paired)
    for span in t.spans:
        old = before[span.kind, span.correlation_id]
        cid = span.correlation_id
        if (span.kind is SpanKind.EXECUTION and cid in paired
                and old is None):
            assert span.parent_id == launches[cid]
        else:
            assert span.parent_id == old
    # Pairing again finds the same pairs and changes nothing.
    after = [s.parent_id for s in t.spans]
    assert correlate_launch_execution(t) == len(paired)
    assert [s.parent_id for s in t.spans] == after


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("kind", [SpanKind.LAUNCH, SpanKind.EXECUTION])
def test_correlation_fuzz_rejects_a_duplicated_id(seed, kind):
    rng = random.Random(seed)
    t, launches, executions = _random_kernel_rows(rng)
    ids = sorted(launches if kind is SpanKind.LAUNCH else executions)
    cid = rng.choice(ids) if ids else 1
    if not ids:
        t.add(Span("first", 0, 1, Level.GPU_KERNEL, span_id=1, kind=kind,
                   correlation_id=cid))
    t.add(Span("again", 0, 1, Level.GPU_KERNEL, span_id=2, kind=kind,
               correlation_id=cid))
    with pytest.raises(ValueError, match=f"duplicate {kind.value} span "
                                         f"for correlation_id={cid}$"):
        correlate_launch_execution(t)


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

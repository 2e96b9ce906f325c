"""Ablation: columnar SpanTable storage vs the object-per-span baseline.

The PR 4 acceptance targets, measured on a 200k-span across-stack
timeline capture (one model span, layers with index/type/shape tags,
launch/execution kernel pairs — the shape ``repro trace`` produces):

* building the structural trace indexes (timeline ordering, level/kind
  partitions, id map, extent) over the columnar storage is at least
  ``MIN_INDEX_SPEEDUP``x faster than the same builds over a list of
  ``Span`` objects (the pre-PR 4 representation, kept here as the
  baseline), and
* the resident footprint of the capture is at least ``MIN_MEMORY_RATIO``x
  smaller (``SpanTable.nbytes`` vs a deep ``sys.getsizeof`` walk of the
  object list that counts every shared object once).

The memory bound is also asserted on a real ``profile_application``
capture of seven zoo models, whose rows carry tuple and ``metric.*``
tags instead of the synthetic capture's scalar ones.
"""

from __future__ import annotations

import random
import sys
import time
from operator import attrgetter

from repro.tracing import Level, Span, SpanKind, Trace
from repro.tracing.span import LogEntry

N_SPANS = 200_000
MIN_INDEX_SPEEDUP = 2.0
MIN_MEMORY_RATIO = 3.0

LAYER_TYPES = ("Conv2D", "BatchNorm", "Relu", "Add", "Dense")
KERNEL_NAMES = (
    "volta_scudnn_128x64_relu_interior_nn_v1",
    "volta_sgemm_128x64_nn",
    "Eigen::TensorCwiseBinaryOp<scalar_sum_op>",
    "tensorflow::BiasNCHWKernel",
)


def make_capture_spans(n_spans: int = N_SPANS, seed: int = 3) -> list[Span]:
    """A realistic timeline capture: layers + launch/execution pairs."""
    rng = random.Random(seed)
    spans: list[Span] = []
    sid = 1
    spans.append(
        Span("predict", 0, 1 << 60, Level.MODEL, span_id=sid,
             tags={"tracer": "model", "batch": 64})
    )
    sid += 1
    n_layers = max(1, n_spans // 24)
    cursor = 0
    layers: list[Span] = []
    for index in range(n_layers):
        width = rng.randint(20_000, 400_000)
        layer = Span(
            f"layer{index}", cursor, cursor + width, Level.LAYER,
            span_id=sid,
            tags={
                "tracer": "layer",
                "layer_index": index,
                "layer_type": rng.choice(LAYER_TYPES),
                "shape": (64, 56, 56),
            },
        )
        sid += 1
        spans.append(layer)
        layers.append(layer)
        cursor += width + rng.randint(0, 1_000)
    while sid < n_spans:
        layer = rng.choice(layers)
        if layer.duration_ns < 8:
            continue
        launch_start = rng.randint(layer.start_ns, layer.end_ns - 4)
        launch_end = rng.randint(launch_start + 1, layer.end_ns)
        name = rng.choice(KERNEL_NAMES)
        spans.append(
            Span(name, launch_start, launch_start + 2, Level.GPU_KERNEL,
                 span_id=sid, kind=SpanKind.LAUNCH, correlation_id=sid,
                 tags={"tracer": "gpu"})
        )
        spans.append(
            Span(name, launch_start + 1, launch_end, Level.GPU_KERNEL,
                 span_id=sid + 1, kind=SpanKind.EXECUTION,
                 correlation_id=sid, tags={"tracer": "gpu"})
        )
        sid += 2
    return spans


# -- the object-per-span baseline (the pre-PR 4 Trace representation) -------

_START = attrgetter("start_ns")
_END = attrgetter("end_ns")


def build_object_indexes(spans: list[Span]):
    """The seed TraceIndex's structural builds over a span-object list."""
    ordered = sorted(spans, key=_END, reverse=True)
    ordered.sort(key=_START)
    by_level: dict[Level, list[Span]] = {}
    for s in spans:
        try:
            by_level[s.level].append(s)
        except KeyError:
            by_level[s.level] = [s]
    by_kind: dict[SpanKind, list[Span]] = {}
    for s in spans:
        try:
            by_kind[s.kind].append(s)
        except KeyError:
            by_kind[s.kind] = [s]
    by_id = {s.span_id: s for s in spans}
    extent = (min(s.start_ns for s in spans), max(s.end_ns for s in spans))
    return ordered, by_level, by_kind, by_id, extent


def build_columnar_indexes(trace: Trace):
    """The same structural family over the SpanTable-backed index."""
    index = trace.index
    return (
        index.rows_sorted(),
        index.level_rows(),
        index.kind_rows(),
        index.row_by_id(),
        index.extent_ns(),
    )


def object_list_nbytes(spans: list[Span]) -> int:
    """Deep size of the object-list representation, shared objects once."""
    seen: set[int] = set()

    def sizeof(obj) -> int:
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        total = sys.getsizeof(obj)
        if isinstance(obj, dict):
            for k, v in obj.items():
                total += sizeof(k) + sizeof(v)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                total += sizeof(item)
        elif isinstance(obj, LogEntry):
            total += sizeof(obj.fields)
        return total

    total = sys.getsizeof(spans)
    for span in spans:
        total += sys.getsizeof(span) + sizeof(span.__dict__)
    return total


# -- benchmarks -------------------------------------------------------------


def _fresh_trace(spans: list[Span]) -> Trace:
    trace = Trace(trace_id=1)
    trace.extend(spans)
    return trace


def test_index_build_columnar_200k(benchmark):
    """TraceIndex structural build over the SoA columns (the hot path)."""
    spans = make_capture_spans()
    trace = _fresh_trace(spans)

    def build():
        trace.invalidate_index()
        return build_columnar_indexes(trace)

    rows_sorted, level_rows, *_ = benchmark(build)
    assert len(rows_sorted) == len(spans)
    assert sum(map(len, level_rows.values())) == len(spans)


def test_index_build_object_list_200k(benchmark):
    """The same builds over the pre-PR 4 span-object list (baseline)."""
    spans = make_capture_spans()
    ordered, by_level, *_ = benchmark.pedantic(
        build_object_indexes, args=(spans,), rounds=2, iterations=1
    )
    assert len(ordered) == len(spans)
    assert sum(map(len, by_level.values())) == len(spans)


def test_columnar_vs_object_speed_and_memory():
    """The PR 4 acceptance oracle: >= 2x faster index build and >= 3x
    lower resident trace memory at 200k spans, with identical results."""
    spans = make_capture_spans()
    trace = _fresh_trace(spans)

    object_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        ordered, by_level, by_kind, by_id, extent = build_object_indexes(
            spans
        )
        object_s = min(object_s, time.perf_counter() - start)

    columnar_s = float("inf")
    for _ in range(3):
        trace.invalidate_index()
        start = time.perf_counter()
        rows, level_rows, kind_rows, row_by_id, col_extent = (
            build_columnar_indexes(trace)
        )
        columnar_s = min(columnar_s, time.perf_counter() - start)

    # Same answers from both representations.
    span_ids = trace.table.span_id
    assert [span_ids[r] for r in rows] == [s.span_id for s in ordered]
    assert {
        lvl: [span_ids[r] for r in rws] for lvl, rws in level_rows.items()
    } == {lvl: [s.span_id for s in ss] for lvl, ss in by_level.items()}
    assert {
        k: [span_ids[r] for r in rws] for k, rws in kind_rows.items()
    } == {k: [s.span_id for s in ss] for k, ss in by_kind.items()}
    assert set(row_by_id) == set(by_id)
    assert col_extent == extent

    speedup = object_s / columnar_s
    assert speedup >= MIN_INDEX_SPEEDUP, (
        f"columnar index build only {speedup:.2f}x faster than the "
        f"object-list baseline ({columnar_s * 1e3:.0f} ms vs "
        f"{object_s * 1e3:.0f} ms on {len(spans)} spans)"
    )

    table_bytes = trace.table.nbytes
    object_bytes = object_list_nbytes(spans)
    ratio = object_bytes / table_bytes
    assert ratio >= MIN_MEMORY_RATIO, (
        f"columnar storage only {ratio:.2f}x smaller "
        f"({table_bytes / 1e6:.1f} MB vs {object_bytes / 1e6:.1f} MB)"
    )


def test_memory_ratio_on_a_real_application_capture():
    """The memory bound on a real capture rather than synthetic scalar
    tags: a ``profile_application`` timeline, whose rows carry tuple
    ``grid``/``block``/``shape`` tags and ``metric.*`` values."""
    from repro.core import XSPSession
    from repro.models import get_model

    session = XSPSession("Tesla_V100", "tensorflow_like")
    trace, _ = session.profile_application(
        [(get_model(m).graph, 1) for m in (7, 4, 48, 15, 9, 49, 20)]
    )
    spans = [
        Span(v.name, v.start_ns, v.end_ns, v.level, span_id=v.span_id,
             trace_id=v.trace_id, parent_id=v.parent_id, kind=v.kind,
             correlation_id=v.correlation_id, tags=dict(v.tags))
        for v in trace.spans
    ]
    table_bytes = trace.table.nbytes
    object_bytes = object_list_nbytes(spans)
    ratio = object_bytes / table_bytes
    assert ratio >= MIN_MEMORY_RATIO, (
        f"columnar storage of a {len(spans)}-span application capture only "
        f"{ratio:.2f}x smaller ({table_bytes / len(spans):.0f} vs "
        f"{object_bytes / len(spans):.0f} bytes per span)"
    )

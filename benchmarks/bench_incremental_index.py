"""Ablation: incremental index maintenance vs rebuild-per-query.

The PR 5 acceptance oracle.  A live ``TracingServer`` interleaves span
appends with queries; before PR 5 every ``Trace.add`` invalidated the
``TraceIndex`` and the next query paid a full O(n log n) rebuild of every
structure.  With append-aware maintenance, the same interleaving advances
the built structures in place (bisect-merge into the orderings, appends
into the partitions/id map, gap folds continued).

Measured on a 100k-span across-stack capture with ``N_ROUNDS``
append→query rounds (each round lands one launch/execution kernel pair,
then runs the row-level query families the correlation/insight hot paths
use): the incremental path must be at least ``MIN_SPEEDUP``x faster than
the rebuild-per-query baseline, with every round's query results — and
the final index state, structure for structure — identical.
"""

from __future__ import annotations

import time

from bench_span_table import make_capture_spans

from repro.tracing import Level, Span, SpanKind, Trace

N_SPANS = 100_000
N_ROUNDS = 40
MIN_SPEEDUP = 5.0


def _tail_pairs(base: int, start_at: int, n_pairs: int) -> list[Span]:
    """Launch/execution pairs extending the capture in time order.

    One continuous stream: successive chunks taken from it keep the
    appends in-order (the streaming reality), so the incremental path's
    fast fold is exercised, not the out-of-order fallback.
    """
    spans: list[Span] = []
    sid = base
    cursor = start_at
    for _ in range(n_pairs):
        spans.append(
            Span("late_kernel", cursor, cursor + 2, Level.GPU_KERNEL,
                 span_id=sid, kind=SpanKind.LAUNCH, correlation_id=sid)
        )
        spans.append(
            Span("late_kernel", cursor + 1, cursor + 900, Level.GPU_KERNEL,
                 span_id=sid + 1, kind=SpanKind.EXECUTION,
                 correlation_id=sid)
        )
        sid += 2
        cursor += 1_500
    return spans


def _chunked_tail(spans, n_chunks: int) -> list[list[Span]]:
    extent_hi = 1 << 60  # the capture's predict span end
    tail = _tail_pairs(len(spans) + 1, extent_hi + 10, n_chunks * N_ROUNDS)
    per_chunk = 2 * N_ROUNDS
    return [
        tail[i * per_chunk:(i + 1) * per_chunk] for i in range(n_chunks)
    ]


def _fresh_trace(spans) -> Trace:
    trace = Trace(trace_id=1)
    trace.extend(spans)
    # Warm every query family so the interleaved rounds measure
    # maintenance, not first-touch builds.
    _query_round(trace)
    return trace


def _query_round(trace: Trace):
    """The row-level families the hot paths consult between appends."""
    index = trace.index
    rows = index.rows_sorted()
    return (
        rows[-1],
        len(rows),
        {lvl: len(r) for lvl, r in index.level_rows().items()},
        index.row_by_id()[trace.table.span_id[len(trace) - 1]],
        index.extent_ns(),
        len(index.gaps(Level.GPU_KERNEL, SpanKind.EXECUTION)),
    )


def _run_rounds(trace: Trace, tail, *, rebuild: bool):
    results = []
    for span in tail:
        trace.add(span)
        if rebuild:
            trace.invalidate_index()  # the pre-PR 5 behavior
        results.append(_query_round(trace))
    return results


def _index_snapshot(trace: Trace):
    index = trace.index
    return {
        "sorted": list(index.rows_sorted()),
        "levels": {l: list(r) for l, r in index.level_rows().items()},
        "kinds": {k: list(r) for k, r in index.kind_rows().items()},
        "by_id": dict(index.row_by_id()),
        "extent": index.extent_ns(),
        "gaps": [
            (g.start_ns, g.end_ns, g.before_id, g.after_id)
            for g in index.gaps(Level.GPU_KERNEL, SpanKind.EXECUTION)
        ],
    }


def test_interleaved_incremental_100k(benchmark):
    """N append→query rounds served by in-place index advancement."""
    spans = make_capture_spans(N_SPANS)
    trace = _fresh_trace(spans)
    iteration = iter(_chunked_tail(spans, 64))

    def interleave():
        return _run_rounds(trace, next(iteration), rebuild=False)

    results = benchmark.pedantic(interleave, rounds=3, iterations=1)
    assert len(results) == 2 * N_ROUNDS


def test_interleaved_rebuild_100k(benchmark):
    """The same rounds with the seed's rebuild-per-query behavior."""
    spans = make_capture_spans(N_SPANS)
    trace = _fresh_trace(spans)
    iteration = iter(_chunked_tail(spans, 8))

    def interleave():
        return _run_rounds(trace, next(iteration), rebuild=True)

    results = benchmark.pedantic(interleave, rounds=2, iterations=1)
    assert len(results) == 2 * N_ROUNDS


def test_incremental_vs_rebuild_speedup_and_identity():
    """The acceptance oracle: >= 5x faster interleaved append/query at
    100k spans, with byte-identical query results and index state."""
    spans = make_capture_spans(N_SPANS)
    incremental = _fresh_trace(spans)
    rebuild = _fresh_trace(spans)
    chunks = _chunked_tail(spans, 3)

    incremental_s = float("inf")
    rebuild_s = float("inf")
    for tail in chunks:
        clone = [
            Span(s.name, s.start_ns, s.end_ns, s.level, span_id=s.span_id,
                 kind=s.kind, correlation_id=s.correlation_id)
            for s in tail
        ]

        start = time.perf_counter()
        incremental_results = _run_rounds(incremental, tail, rebuild=False)
        incremental_s = min(incremental_s, time.perf_counter() - start)

        start = time.perf_counter()
        rebuild_results = _run_rounds(rebuild, clone, rebuild=True)
        rebuild_s = min(rebuild_s, time.perf_counter() - start)

        # Every round answered identically.
        assert incremental_results == rebuild_results

    # The maintained index is structure-for-structure a cold rebuild.
    assert _index_snapshot(incremental) == _index_snapshot(rebuild)

    speedup = rebuild_s / incremental_s
    assert speedup >= MIN_SPEEDUP, (
        f"incremental maintenance only {speedup:.2f}x faster than "
        f"rebuild-per-query ({incremental_s * 1e3:.1f} ms vs "
        f"{rebuild_s * 1e3:.1f} ms for {2 * N_ROUNDS} append/query "
        f"rounds on {len(spans)} spans)"
    )

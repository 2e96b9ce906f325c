"""TracingServer streaming surface: stream cursors, row batches, publish_rows."""

from __future__ import annotations

import threading

import pytest

from rows import span_rows

from repro.tracing import Level, Span, TracingServer


def _span(i: int, start: int = 0, end: int = 10, level=Level.MODEL):
    return Span(f"s{i}", start, end, level, span_id=i)


def test_poll_yields_contiguous_batches():
    server = TracingServer()
    tid = server.begin_trace()
    stream = server.stream(tid)
    assert stream.poll() is None
    server.publish_many(span_rows(_span(i, i, i + 1) for i in range(1, 4)))
    batch = stream.poll()
    assert (batch.start, batch.stop) == (0, 3)
    assert list(batch) == [0, 1, 2]
    assert [v.span_id for v in batch.views()] == [1, 2, 3]
    server.publish(_span(4, 10, 11))
    batch = stream.poll()
    assert (batch.start, batch.stop) == (3, 4)
    assert stream.poll() is None
    assert stream.cursor == 4


def test_poll_max_rows_windows():
    server = TracingServer()
    tid = server.begin_trace()
    stream = server.stream(tid)
    server.publish_many(span_rows(_span(i, i, i + 1) for i in range(1, 8)))
    sizes = []
    while True:
        batch = stream.poll(max_rows=3)
        if batch is None:
            break
        sizes.append(len(batch))
    assert sizes == [3, 3, 1]


def test_stream_defaults_to_active_trace():
    server = TracingServer()
    tid = server.begin_trace()
    stream = server.stream()
    assert stream.trace.trace_id == tid


def test_at_end_after_end_trace():
    server = TracingServer()
    tid = server.begin_trace()
    stream = server.stream(tid)
    server.publish(_span(1))
    assert not stream.at_end
    server.end_trace(tid)
    assert not stream.at_end  # one row still unread
    assert len(stream.read()) == 1
    assert stream.at_end
    assert stream.read(timeout=0.01) is None


def test_iteration_terminates_when_trace_ends():
    server = TracingServer()
    tid = server.begin_trace()
    server.publish_many(span_rows(_span(i, i, i + 1) for i in range(1, 6)))
    stream = server.stream(tid)
    server.end_trace(tid)
    rows = [row for batch in stream for row in batch]
    assert rows == list(range(5))


def test_read_blocks_until_publication():
    server = TracingServer()
    tid = server.begin_trace()
    stream = server.stream(tid)

    def produce():
        server.publish(_span(1))
        server.publish(_span(2))
        server.end_trace(tid)

    producer = threading.Thread(target=produce)
    producer.start()
    consumed = [row for batch in stream for row in batch]
    producer.join()
    assert consumed == [0, 1]
    assert stream.at_end


def test_read_timeout_not_restarted_by_other_traces():
    """The condition is shared server-wide: wakeups for *other* traces'
    publications must not restart a quiet stream's timeout."""
    import time

    server = TracingServer()
    quiet = server.begin_trace()
    busy = server.begin_trace()
    stream = server.stream(quiet)
    stop = threading.Event()

    def chatter():
        i = 1
        while not stop.is_set():
            span = _span(i)
            span.trace_id = busy
            server.publish(span)
            i += 1
            time.sleep(0.01)

    noisy = threading.Thread(target=chatter, daemon=True)
    noisy.start()
    start = time.monotonic()
    assert stream.read(timeout=0.15) is None
    elapsed = time.monotonic() - start
    stop.set()
    noisy.join()
    assert elapsed < 2.0  # bounded by the deadline, not restarted forever
    assert not stream.at_end


def test_publish_rows_streams_span_free():
    """The columnar batch path: rows land without any Span object and
    stream cursors see them."""
    server = TracingServer()
    tid = server.begin_trace()
    stream = server.stream(tid)
    count = server.publish_rows(
        tid,
        (
            dict(name=f"r{i}", start_ns=i, end_ns=i + 2,
                 level=Level.GPU_KERNEL, span_id=100 + i)
            for i in range(3)
        ),
    )
    assert count == 3
    batch = stream.read()
    assert [batch.table.name_of(r) for r in batch] == ["r0", "r1", "r2"]
    trace = server.end_trace(tid)
    assert [s.span_id for s in trace.spans] == [100, 101, 102]
    assert all(s.trace_id == tid for s in trace.spans)


def test_publish_rows_to_ended_trace_raises():
    server = TracingServer()
    tid = server.begin_trace()
    server.end_trace(tid)
    try:
        server.publish_rows(tid, [dict(name="x", start_ns=0, end_ns=1,
                                       level=Level.MODEL, span_id=1)])
    except KeyError:
        pass
    else:  # pragma: no cover - assertion arm
        raise AssertionError("expected KeyError for ended trace")


def _row_mapping(i: int, start: int = 0, end: int = 10) -> dict:
    return dict(name=f"r{i}", start_ns=start, end_ns=end,
                level=Level.GPU_KERNEL, span_id=100 + i)


def test_publish_rows_bad_row_lands_nothing():
    """A row ending before it starts fails the whole batch: the rows
    before it do not land either."""
    server = TracingServer()
    tid = server.begin_trace()
    server.publish_rows(tid, [_row_mapping(0)])
    trace = server.stream(tid).trace
    before = (trace.watermark, trace.table.to_columns())
    batch = [_row_mapping(1), _row_mapping(2, 20, 5), _row_mapping(3)]
    with pytest.raises(ValueError, match="precedes"):
        server.publish_rows(tid, batch)
    assert (trace.watermark, trace.table.to_columns()) == before


def test_poll_inside_publish_rows_sees_none_of_the_batch():
    """A cursor polled while publish_rows is still reading its rows sees
    none of that batch; the next poll sees all of it."""
    server = TracingServer()
    tid = server.begin_trace()
    stream = server.stream(tid)
    seen = []

    def mappings():
        for i in range(4):
            batch = stream.poll()
            seen.append(0 if batch is None else len(batch))
            yield _row_mapping(i, i, i + 1)

    assert server.publish_rows(tid, mappings()) == 4
    assert seen == [0, 0, 0, 0]
    assert len(stream.poll()) == 4


def test_stream_survives_trace_end_eviction():
    """end_trace evicts the trace from the server; an existing cursor
    keeps draining the (closed) timeline it already holds."""
    server = TracingServer()
    tid = server.begin_trace()
    stream = server.stream(tid)
    server.publish_many(span_rows(_span(i, i, i + 1) for i in range(1, 4)))
    server.end_trace(tid)
    assert server.traces() == []
    assert len(stream.read()) == 3
    assert stream.at_end


def test_annotate_trace_merges_metadata():
    server = TracingServer()
    tid = server.begin_trace(model="m")
    server.annotate_trace(tid, application="app", batch=4)
    trace = server.end_trace(tid)
    assert trace.metadata == {"model": "m", "application": "app", "batch": 4}


def test_clear_closes_open_traces():
    server = TracingServer()
    tid = server.begin_trace()
    stream = server.stream(tid)
    server.publish(_span(1))
    server.clear()
    assert len(stream.read()) == 1
    assert stream.at_end


def test_mid_capture_queries_advance_not_rebuild():
    """An open trace is queryable between publications: the index
    advances over each published batch (the PR 5 'live trace' contract)."""
    server = TracingServer()
    tid = server.begin_trace()
    trace = server.stream(tid).trace
    server.publish_many(span_rows(
        _span(i, 100 * i, 100 * i + 50, Level.GPU_KERNEL) for i in range(1, 5)
    ))
    index = trace.index
    assert len(trace.index.rows_sorted()) == 4
    server.publish_many(span_rows(
        _span(i, 100 * i, 100 * i + 50, Level.GPU_KERNEL) for i in range(5, 9)
    ))
    assert trace.index is index  # advanced in place, not rebuilt
    assert [trace.spans[r].span_id for r in trace.index.rows_sorted()] == \
        list(range(1, 9))

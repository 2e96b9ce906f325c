"""SpanTable unit tests: columns, interning, frozen rows, nbytes, index
maintenance.

The storage contract (see ``src/repro/tracing/table.py``): spans ingest
into typed columns with interned names and interned tag-key schemas whose
values sit in one flat value list; views
are flyweights that read columns and write ``parent_id`` through; every
other field of a published row is frozen, and reading it stores nothing.
Readers stop at the table's watermark.  An incrementally advanced index
must agree with a cold rebuild on every query family.
"""

from __future__ import annotations

import random

import pytest
from rows import span_rows

from repro.tracing import Level, LogEntry, Span, SpanKind, SpanTable, Trace
from repro.tracing.table import NONE_ID, SpanView, row_of, span_row


def _span(i: int, **kwargs) -> Span:
    defaults = dict(
        name=f"op{i % 3}",
        start_ns=10 * i,
        end_ns=10 * i + 5,
        level=Level.GPU_KERNEL,
        span_id=i,
    )
    defaults.update(kwargs)
    return Span(**defaults)


# -- columns and interning --------------------------------------------------


def test_append_fills_columns():
    table = SpanTable()
    row = table.append(
        _span(1, kind=SpanKind.LAUNCH, correlation_id=77, parent_id=9)
    )
    assert row == 0
    assert table.span_id[0] == 1
    assert table.start_ns[0] == 10
    assert table.end_ns[0] == 15
    assert table.level[0] == int(Level.GPU_KERNEL)
    assert table.kind_of(0) is SpanKind.LAUNCH
    assert table.parent_id[0] == 9
    assert table.correlation_id_of(0) == 77
    assert len(table) == 1


def test_none_ids_use_sentinel():
    table = SpanTable()
    table.append(_span(1))
    assert table.parent_id[0] == NONE_ID
    assert table.parent_id_of(0) is None
    assert table.correlation_id[0] == NONE_ID
    assert table.correlation_id_of(0) is None


def test_invalid_interval_rejected():
    table = SpanTable()
    with pytest.raises(ValueError, match="precedes"):
        table.append_rows([row_of("bad", 10, 5, Level.MODEL, 1)], trace_id=0)
    assert len(table) == 0


def test_names_are_interned():
    table = SpanTable()
    for i in range(1, 100):
        table.append(_span(i))  # cycles over 3 distinct names
    assert len(table._names) == 3
    assert [table.name_of(r) for r in range(3)] == ["op1", "op2", "op0"]


def test_scalar_tag_sets_are_shared():
    table = SpanTable()
    for i in range(1, 50):
        table.append(_span(i, tags={"tracer": "gpu", "idx": 7}))
    # One interned key schema serves all 49 rows; values sit back to back.
    assert table._schemas.by_code == [("tracer", "idx")]
    assert set(table.tag_schema) == {0}
    assert list(table.tag_start) == list(range(0, 98, 2))
    assert len(table._values) == 98
    assert dict(table.iter_tags(13)) == {"tracer": "gpu", "idx": 7}


def test_equal_but_differently_typed_tag_values_do_not_conflate():
    """True/1/1.0 are == and hash alike, but must not share a pooled
    tag-set: each row reads back the exact value type it ingested."""
    table = SpanTable()
    table.append(_span(1, tags={"x": True}))
    table.append(_span(2, tags={"x": 1}))
    table.append(_span(3, tags={"x": 1.0}))
    values = [table.peek_tags(r)["x"] for r in range(3)]
    assert values == [True, 1, 1.0]
    assert [type(v) for v in values] == [bool, int, float]


def _row(i: int, keys=(), values=(), start=0, end=5) -> tuple:
    return (f"op{i}", start, end, int(Level.GPU_KERNEL), 0, i, NONE_ID,
            NONE_ID, keys, values)


def test_append_rows_matches_append_row():
    """A batch of row tuples lands exactly like the same spans one by one:
    same columns, same interned names and schemas, same tag values."""
    tags = [{}, {"x": True}, {"x": 1}, {"x": 1.0}, {"grid": (2, 1, 1),
            "shape": [1, [2]], "meta": {"a": (1,)}}, {"x": 1}]
    by_row, batched = SpanTable(), SpanTable()
    for i, t in enumerate(tags, 1):
        by_row.append(_span(i, tags=t))
    batched.append_rows(
        [(f"op{i % 3}", 10 * i, 10 * i + 5, int(Level.GPU_KERNEL), 0, i,
          NONE_ID, NONE_ID, tuple(t), tuple(t.values()))
         for i, t in enumerate(tags, 1)],
        trace_id=0,
    )
    for column in ("span_id", "start_ns", "end_ns", "parent_id",
                   "correlation_id", "trace_id", "level", "kind", "name_id",
                   "tag_schema", "tag_start"):
        assert getattr(batched, column) == getattr(by_row, column), column
    assert batched._values == by_row._values
    assert len(batched) == batched.watermark == len(tags)
    for row in range(len(tags)):
        assert list(batched.iter_tags(row)) == list(tags[row].items())
        assert [type(v) for _, v in batched.iter_tags(row)] == [
            type(v) for v in tags[row].values()
        ]


def test_bad_batch_leaves_table_unchanged():
    table = SpanTable()
    table.append_rows([_row(1, ("x",), (1,))], trace_id=3)
    state = [list(getattr(table, c)) for c in ("span_id", "tag_start")]
    state.append(list(table._values))
    for bad in (
        [_row(2), _row(3, start=9, end=1)],   # end precedes start
        [_row(2, ("x", "y"), (1,))],          # values do not match keys
        [_row(2)[:6] + (None,) + _row(2)[7:]],  # None instead of NONE_ID
    ):
        with pytest.raises((ValueError, TypeError)):
            table.append_rows(bad, trace_id=3)
        assert [list(getattr(table, c)) for c in ("span_id", "tag_start")] \
            + [list(table._values)] == state
        assert len(table) == 1


def test_extend_lands_whole_or_not_at_all():
    trace = Trace(trace_id=4)
    trace.add(_span(1))
    bad = _span(3)
    bad.end_ns = bad.start_ns - 1  # a Span checks its interval when built
    with pytest.raises(ValueError, match="precedes"):
        trace.extend([_span(2), bad, _span(4)])
    assert len(trace) == 1
    assert trace.table.span_id.tolist() == [1]


def test_extend_keeps_each_spans_logs_and_stamps_the_trace_id():
    first = LogEntry(1, {"a": 1})
    later = LogEntry(7, {"event": "x"})
    trace = Trace(trace_id=4)
    trace.add(_span(1, logs=[first]))
    spans = [_span(2), _span(3, logs=[later]), _span(4, trace_id=9)]
    trace.extend(spans)
    assert [trace.table.peek_logs(row) for row in range(4)] == [
        [first], [], [later], []
    ]
    assert trace.table.trace_id.tolist() == [4, 4, 4, 4]
    assert [span.trace_id for span in spans] == [4, 4, 4]


def test_row_of_takes_enums_or_column_codes():
    span = _span(5, kind=SpanKind.EXECUTION, parent_id=2, correlation_id=8,
                 tags={"a": 1, "b": (2,)})
    by_codes = row_of(span.name, 50, 55, int(Level.GPU_KERNEL), 5,
                      parent_id=2, kind=2, correlation_id=8,
                      tags={"a": 1, "b": (2,)})
    assert span_row(span) == by_codes == (
        "op2", 50, 55, int(Level.GPU_KERNEL), 2, 5, 2, 8, ("a", "b"),
        (1, (2,)),
    )
    assert row_of("x", 0, 1, Level.MODEL, 6) == (
        "x", 0, 1, int(Level.MODEL), 0, 6, NONE_ID, NONE_ID, (), (),
    )


def test_tag_columns_read_by_position_with_defaults():
    table = SpanTable()
    table.append_rows([
        _row(1, ("a", "b", "tracer"), (1, (2, 2), "gpu")),
        _row(2, ("b",), ([3],)),
        _row(3),
        _row(4, ("a", "b", "tracer"), (5, (6,), "gpu")),
    ], trace_id=0)
    assert table.tag_columns([0, 1, 2, 3], ("b", "a"), ("B", "A")) == [
        [(2, 2), [3], "B", (6,)], [1, "A", "A", 5],
    ]
    # One schema: each column is one pass over the rows' offsets.
    assert table.tag_columns([3, 0], ("a", "c"), (0, "C")) == [
        [5, 1], ["C", "C"],
    ]
    assert table.tag_columns([], ("a",), (0,)) == [[]]


def test_any_tag_value_is_stored_in_the_value_list():
    """Tuples, lists and dicts are stored as given, next to scalars."""
    table = SpanTable()
    shape, meta = [8, 3, 4], {"a": (1, 2)}
    table.append(_span(1, tags={"shape": shape, "grid": (2, 1, 1)}))
    table.append(_span(2, tags={"meta": meta}))
    assert table.peek_tags(0) == {"shape": [8, 3, 4], "grid": (2, 1, 1)}
    assert table.peek_tags(1) == {"meta": {"a": (1, 2)}}
    assert table._values[0] is shape and table._values[2] is meta


def test_view_tags_are_read_only():
    table = SpanTable()
    table.append(_span(1, tags={"tracer": "gpu"}))
    table.append(
        _span(2, tags={"shape": [8, 3]}, logs=[LogEntry(5, {"event": "x"})])
    )
    state = (
        table.tag_schema.tolist(), table.tag_start.tolist(),
        list(table._values), dict(table._logs),
    )
    nbytes = table.nbytes
    for row in range(len(table)):
        view = SpanView(table, row)
        with pytest.raises(TypeError):
            view.tags["extra"] = 1
        with pytest.raises(AttributeError):
            view.logs.append(None)
        assert dict(view.tags) == dict(table.iter_tags(row))
        assert view.logs == tuple(table.peek_logs(row))
    assert not hasattr(SpanView(table, 0), "tag")
    assert not hasattr(SpanView(table, 0), "log")
    # Reads stored nothing: no promoted dict, no empty log list.
    assert (
        table.tag_schema.tolist(), table.tag_start.tolist(),
        list(table._values), dict(table._logs),
    ) == state
    assert table.nbytes == nbytes


def test_peek_does_not_promote():
    table = SpanTable()
    table.append(_span(1, tags={"tracer": "gpu"}))
    table.peek_tags(0)["tracer"] = "changed"
    list(table.iter_tags(0))
    assert table._values == ["gpu"]
    assert dict(table.iter_tags(0)) == {"tracer": "gpu"}


def test_nbytes_grows_with_rows_not_reads():
    table = SpanTable()
    empty = table.nbytes
    for i in range(1, 200):
        table.append(_span(i, tags={"tracer": "gpu"}))
    packed = table.nbytes
    assert packed > empty
    for view in table.views():
        view.tags, view.logs
    assert table.nbytes == packed


# -- views ------------------------------------------------------------------


def test_view_writes_parent_through():
    trace = Trace(trace_id=1)
    trace.add(_span(1, level=Level.LAYER, start_ns=0, end_ns=100))
    trace.add(_span(2, start_ns=10, end_ns=20))
    view = trace.by_id()[2]
    view.parent_id = 1
    trace.touch_parents()
    assert trace.table.parent_id[1] == 1
    assert trace.by_id()[2].parent_id == 1


def test_view_equality_and_span_equality():
    trace = Trace(trace_id=3)
    span = _span(5, tags={"a": 1})
    trace.add(span)
    view = trace.spans[0]
    assert view == trace.spans[0]
    assert view == span and span == view
    other = _span(6)
    trace.add(other)
    assert view != trace.spans[1]
    assert view != other


def test_view_is_unhashable_like_span():
    trace = Trace(trace_id=1)
    trace.add(_span(1))
    with pytest.raises(TypeError):
        hash(trace.spans[0])
    with pytest.raises(TypeError):
        hash(_span(2))


# -- the span sequence ------------------------------------------------------


def test_span_sequence_supports_list_protocol():
    trace = Trace(trace_id=1)
    for i in range(1, 6):
        trace.add(_span(i))
    seq = trace.spans
    assert len(seq) == 5 and bool(seq)
    assert seq[0].span_id == 1 and seq[-1].span_id == 5
    assert [s.span_id for s in seq[1:3]] == [2, 3]
    assert random.Random(0).choice(seq).span_id in range(1, 6)
    with pytest.raises(IndexError):
        seq[5]
    assert not Trace(trace_id=2).spans


def _append_columns_only(table: SpanTable, span: Span) -> None:
    """The first steps of an append: every column up to ``name_id``
    grows, but the tag column and the watermark do not (a capture thread
    caught mid-append)."""
    table.span_id.append(span.span_id)
    table.start_ns.append(span.start_ns)
    table.end_ns.append(span.end_ns)
    table.parent_id.append(NONE_ID)
    table.correlation_id.append(NONE_ID)
    table.trace_id.append(span.trace_id)
    table.level.append(int(span.level))
    table.kind.append(0)
    table.name_id.append(table._names[span.name])


def test_readers_stop_at_watermark():
    trace = Trace(trace_id=1)
    trace.add(_span(1, name="done", tags={"tracer": "gpu"}))
    _append_columns_only(trace.table, _span(2, name="half"))
    assert len(trace) == trace.watermark == 1
    assert len(trace.spans) == 1 and bool(trace.spans)
    assert len(trace.table) == 1
    assert [s.span_id for s in trace] == [1]
    assert [s.span_id for s in trace.spans] == [1]
    assert [s.span_id for s in trace.spans[:]] == [1]
    assert trace.spans[-1].span_id == 1
    with pytest.raises(IndexError):
        trace.spans[1]
    assert [s.span_id for s in trace.find(lambda s: True)] == [1]
    assert [dict(s.tags) for s in trace.find(lambda s: True)] == [
        {"tracer": "gpu"}
    ]
    assert trace.first_named("half") is None
    assert trace.first_named("done").span_id == 1
    assert [trace.spans[r].span_id for r in trace.index.rows_sorted()] == [1]


# -- incremental maintenance == cold rebuild (fuzz) -------------------------


def _live_snapshot(trace: Trace):
    """Full query-family snapshot *without* dropping the live index."""
    index = trace.index
    return {
        "sorted": [trace.table.span_id[r] for r in index.rows_sorted()],
        "level_rows": {
            lvl: list(rows) for lvl, rows in index.level_rows().items()
        },
        "level_sorted": {
            lvl: index.level_rows_sorted(lvl)[:]
            for lvl in index.levels_present()
        },
        "kind_rows": {
            k: list(rows) for k, rows in index.kind_rows().items()
        },
        "row_by_id": dict(index.row_by_id()),
        "extent": index.extent_ns(),
        "levels": index.levels_present()[:],
        "gaps": {
            (lvl, kind): [
                (g.start_ns, g.end_ns, g.before_id, g.after_id)
                for g in index.gaps(lvl, kind)
            ]
            for lvl in (Level.GPU_KERNEL, Level.LAYER)
            for kind in (None, SpanKind.EXECUTION)
        },
    }


def _cold_level_extent(trace: Trace, level: Level, kind) -> tuple | None:
    """(min start, max end) of ``level``'s (and ``kind``'s) rows, by a
    scan of the columns."""
    table = trace.table
    rows = [r for r in range(len(table)) if table.level_of(r) == level
            and (kind is None or table.kind_of(r) == kind)]
    if not rows:
        return None
    return (min(table.start_ns[r] for r in rows),
            max(table.end_ns[r] for r in rows))


def _fuzz_incremental_maintenance(seed: int, *,
                                  check_extents: bool = False) -> None:
    """Random interleavings of add / publish_rows / publish_many /
    queries / touch_parents; after every mutation burst the live
    (incrementally advanced) index must answer every query family
    exactly like a cold rebuild of the same trace.  With
    ``check_extents``, every level's and kind's extent is compared with
    a scan of the columns after every step."""
    from repro.tracing import TracingServer

    rng = random.Random(seed)
    server = TracingServer()
    tid = server.begin_trace()
    trace = server.stream(tid).trace
    next_id = 1

    def random_span():
        nonlocal next_id
        start = rng.randint(0, 20_000)
        span = Span(
            f"op{rng.randint(0, 3)}",
            start,
            start + rng.randint(0, 800),
            rng.choice(list(Level)),
            span_id=next_id,
            kind=rng.choice(list(SpanKind)),
            parent_id=rng.choice([None, rng.randint(1, 60)]),
            correlation_id=rng.choice([None, next_id]),
            tags=rng.choice([None, {"tracer": "gpu"}, {"idx": next_id}]),
        )
        next_id += 1
        return span

    for step in range(120):
        op = rng.randrange(5)
        if op == 0:
            trace.add(random_span())
        elif op == 1:
            server.publish_rows(tid, [
                dict(name=span.name, start_ns=span.start_ns,
                     end_ns=span.end_ns, level=span.level,
                     span_id=span.span_id, kind=span.kind,
                     parent_id=span.parent_id,
                     correlation_id=span.correlation_id, tags=span.tags)
                for span in (random_span()
                             for _ in range(rng.randint(1, 12)))
            ])
        elif op == 2:
            server.publish_many(span_rows(
                random_span() for _ in range(rng.randint(1, 12))
            ))
        elif op == 3 and len(trace) > 0:
            # Query a random family to force structures live mid-growth.
            rng.choice(
                (
                    lambda: trace.index.rows_sorted(),
                    trace.levels_present,
                    trace.by_id,
                    trace.span_extent_ns,
                    lambda: trace.gaps(Level.GPU_KERNEL, SpanKind.EXECUTION),
                    lambda: trace.at_level(Level.LAYER),
                )
            )()
        elif op == 4 and len(trace) > 0:
            # Post-hoc parent edit through a view + touch_parents.
            row = rng.randrange(len(trace))
            view = trace.spans[row]
            view.parent_id = rng.choice([None, rng.randint(1, 60)])
            trace.touch_parents()
        if check_extents:
            for level in Level:
                for kind in (None, *SpanKind):
                    assert trace.index.level_extent_ns(level, kind) == \
                        _cold_level_extent(trace, level, kind), (
                            f"extent at seed={seed} step={step}")
        if step % 13 == 0 and len(trace) > 0:
            live = _live_snapshot(trace)
            trace.invalidate_index()
            assert live == _live_snapshot(trace), (
                f"incremental != cold at seed={seed} step={step}"
            )
    live = _live_snapshot(trace)
    trace.invalidate_index()
    assert live == _live_snapshot(trace)


@pytest.mark.parametrize("seed", range(10))
def test_incremental_maintenance_equals_cold_rebuild(seed):
    _fuzz_incremental_maintenance(seed)


@pytest.mark.parametrize("seed", range(10, 16))
def test_level_extent_follows_every_append(seed):
    """The extent read from the gap fold equals a scan after every
    interleaved append, ``touch_parents`` and out-of-order span."""
    _fuzz_incremental_maintenance(seed, check_extents=True)

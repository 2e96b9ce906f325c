"""Round-trip fuzz for the trace storage and JSON export.

Randomized traces with exotic tag/log values (objects, nested tuples,
bytes, unicode names), random parent assignments, and every level/kind
must survive ``trace_from_json(trace_to_json(t))`` with span ids,
parents, and levels intact.  Values only need to *serialize* (exotic
ones may degrade to ``repr``); identity and structure must be lossless.

The same corpus fuzzes the storage stack itself: ingesting a ``Span``
into the columnar ``SpanTable`` and reading it back through a view must
be the identity, reading views must not change what the exporter sees,
and a JSON round trip must reproduce the columns exactly.  A second
corpus of tuple, list, dict and typed-scalar tags, ingested through
every path and captured by every converter, checks that ``peek_tags``,
``iter_tags`` and ``view.tags`` agree.

The file format (v3: packed integer columns and one tag-value pool)
must round-trip to a fixpoint, a v2 document (one JSON list per column,
written by ``trace_v2_oracle``) must load to the same table, tags and
Chrome trace as the v3 document of the same trace, a v1 document (one
object per span) must load to the columns of its v2 export, and a
malformed v2 or v3 table must raise and leave the table as it was.
"""

from __future__ import annotations

import dataclasses
import json
import random
from array import array
from base64 import b64decode, b64encode

import pytest
import trace_v2_oracle
from rows import span_rows

from repro.tracing import Level, Span, SpanKind, Trace, TracingServer
from repro.tracing.export import (
    trace_from_dict,
    trace_from_json,
    trace_to_chrome,
    trace_to_json,
)
from repro.tracing.span import LogEntry
from repro.tracing.table import jsonable

_NAMES = (
    "predict",
    "conv2d_тест",  # cyrillic
    "カーネル",  # japanese
    "Eigen::TensorCwiseBinaryOp<scalar_max_op<float>, const T1, T2>",
    "layer/with/slashes and spaces",
    "emoji🔥kernel",
    "",  # empty name
)


@dataclasses.dataclass
class _Opaque:
    """A non-JSON value someone stuffed into tags/logs."""

    x: int

    def __repr__(self) -> str:
        return f"Opaque(x={self.x})"


def _exotic_value(rng: random.Random):
    choices = (
        lambda: rng.randint(-(1 << 40), 1 << 40),
        lambda: rng.random() * 1e12,
        lambda: rng.choice(_NAMES),
        lambda: None,
        lambda: rng.random() < 0.5,
        lambda: (rng.randint(0, 9),) * rng.randint(0, 4),  # tuple shapes
        lambda: [(1, 2), {"nested": (3, 4)}],
        lambda: {"k": {"deep": (5, 6)}, 7: "int-key"},
        lambda: _Opaque(rng.randint(0, 99)),
        lambda: b"\x00raw-bytes",
        lambda: float("inf"),
        # Equal values JSON tells apart: a value pool must too.
        lambda: rng.choice((1, 1.0, True, -0.0, 0.0, [1], [True], (1.0,))),
    )
    return rng.choice(choices)()


def _random_spans(rng: random.Random) -> list[Span]:
    n = rng.randint(1, 40)
    spans: list[Span] = []
    span_ids: list[int] = []
    for i in range(n):
        start = rng.randint(0, 10**9)
        span = Span(
            name=rng.choice(_NAMES),
            start_ns=start,
            end_ns=start + rng.randint(0, 10**6),
            level=rng.choice(list(Level)),
            span_id=1000 + i,
            parent_id=rng.choice(span_ids) if span_ids and rng.random() < 0.7
            else None,
            kind=rng.choice(list(SpanKind)),
            correlation_id=rng.randint(1, 99) if rng.random() < 0.5 else None,
            tags={f"tag{j}": _exotic_value(rng) for j in range(rng.randint(0, 4))},
        )
        for _ in range(rng.randint(0, 3)):
            span.log(
                rng.randint(0, 10**9),
                **{f"f{j}": _exotic_value(rng) for j in range(rng.randint(1, 3))},
            )
        spans.append(span)
        span_ids.append(span.span_id)
    return spans


def _random_trace(seed: int) -> Trace:
    rng = random.Random(seed)
    trace = Trace(
        trace_id=rng.randint(1, 1 << 31),
        metadata={"model": rng.choice(_NAMES), "weird": _exotic_value(rng)},
    )
    trace.extend(_random_spans(rng))
    return trace


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_preserves_identity_and_structure(seed):
    original = _random_trace(seed)
    restored = trace_from_json(trace_to_json(original))

    assert restored.trace_id == original.trace_id
    assert len(restored) == len(original)
    for a, b in zip(original.spans, restored.spans):
        assert b.span_id == a.span_id
        assert b.parent_id == a.parent_id
        assert b.level is a.level
        assert b.kind is a.kind
        assert b.name == a.name
        assert (b.start_ns, b.end_ns) == (a.start_ns, a.end_ns)
        assert b.correlation_id == a.correlation_id
        assert len(b.logs) == len(a.logs)
        for la, lb in zip(a.logs, b.logs):
            assert lb.timestamp_ns == la.timestamp_ns
            assert set(lb.fields) == {str(k) for k in la.fields}


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_is_stable(seed):
    """Export of a restored trace is byte-identical (fixpoint after one
    trip: exotic values have already degraded to their JSON forms)."""
    once = trace_to_json(_random_trace(seed))
    assert trace_to_json(trace_from_json(once)) == once


# -- storage equivalence: Span -> SpanTable -> view is the identity ---------


def _columns(trace: Trace) -> dict:
    table = trace.table
    return {
        "span_id": table.span_id.tolist(),
        "start_ns": table.start_ns.tolist(),
        "end_ns": table.end_ns.tolist(),
        "level": table.level.tolist(),
        "kind": table.kind.tolist(),
        "parent_id": table.parent_id.tolist(),
        "correlation_id": table.correlation_id.tolist(),
        "names": [table.name_of(r) for r in range(len(table))],
        "tags": [dict(table.iter_tags(r)) for r in range(len(table))],
        "logs": [table.peek_logs(r) for r in range(len(table))],
    }


@pytest.mark.parametrize("seed", range(25))
def test_table_views_are_equivalent_to_ingested_spans(seed):
    """Every field read through a view equals the span that was ingested,
    and view/span equality holds in both directions."""
    rng = random.Random(seed * 7919 + 1)
    spans = _random_spans(rng)
    trace = Trace(trace_id=7)
    trace.extend(spans)
    assert len(trace) == len(spans)
    for original, view in zip(spans, trace.spans):
        assert view.name == original.name
        assert view.start_ns == original.start_ns
        assert view.end_ns == original.end_ns
        assert view.duration_ns == original.duration_ns
        assert view.level is original.level
        assert view.kind is original.kind
        assert view.span_id == original.span_id
        assert view.trace_id == original.trace_id == 7  # stamped by add()
        assert view.parent_id == original.parent_id
        assert view.correlation_id == original.correlation_id
        assert dict(view.iter_tags()) == original.tags
        assert list(view.logs) == original.logs
        assert view == original and original == view


@pytest.mark.parametrize("seed", range(25))
def test_view_materialization_does_not_change_export(seed):
    """Reading every view's ``tags`` and ``logs`` stores nothing: the
    table's size and the JSON export stay byte-identical."""
    trace = _random_trace(seed)
    before = trace_to_json(trace)
    nbytes = trace.table.nbytes
    for view in trace.spans:
        view.tags, view.logs
    assert trace.table.nbytes == nbytes
    assert trace_to_json(trace) == before


@pytest.mark.parametrize("seed", range(25))
def test_json_round_trip_reproduces_columns(seed):
    """trace -> JSON -> trace reproduces the whole SpanTable: every
    column, interned name, tag mapping, and log list."""
    original = _random_trace(seed)
    restored = trace_from_json(trace_to_json(original))
    a, b = _columns(original), _columns(restored)
    # Exotic tag/log values may only have degraded to their JSON forms;
    # compare those after one normalizing trip.
    for key in ("span_id", "start_ns", "end_ns", "level", "kind",
                "parent_id", "correlation_id", "names"):
        assert b[key] == a[key], key
    roundtwice = trace_from_json(trace_to_json(restored))
    assert _columns(roundtwice) == _columns(restored)


@pytest.mark.parametrize("seed", range(10))
def test_mutation_through_views_reaches_storage_and_export(seed):
    """parent_id writes through views land in the column and round-trip
    through the export; parent_id is the only field a view may write."""
    trace = _random_trace(seed)
    views = list(trace.spans)
    root = views[0]
    for view in views[1:]:
        view.parent_id = root.span_id
    trace.touch_parents()
    assert trace.table.parent_id.tolist()[1:] == [root.span_id] * (
        len(views) - 1
    )
    with pytest.raises(AttributeError):
        views[-1].name = "edited"
    restored = trace_from_json(trace_to_json(trace))
    restored_views = list(restored.spans)
    for view in restored_views[1:]:
        assert view.parent_id == root.span_id
    assert restored.table.parent_id.tolist() == trace.table.parent_id.tolist()


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_preserves_hierarchy_queries(seed):
    """The id map and parent column of the restored trace match the
    original's."""
    original = _random_trace(seed)
    restored = trace_from_json(trace_to_json(original))
    # Rows keep their places in the file, so rows compare as is.
    assert restored.index.row_by_id() == original.index.row_by_id()
    assert restored.table.parent_id.tolist() == \
        original.table.parent_id.tolist()


# -- one tag store for every ingest path ---------------------------------------

#: Tag values the table must store as given: tuples, lists, dicts, nested
#: lists, and equal-but-differently-typed scalars under one key.
_TYPED_VALUES = (
    True, 1, 1.0, (2, 1, 1), [8, 3, 4], [[1, 2], [3, [4]]],
    {"k": [1, (2, 3)]}, "gpu", None,
)


def _typed_tags(rng: random.Random) -> dict:
    keys = rng.sample(["x", "grid", "shape", "meta", "tracer"], rng.randint(0, 4))
    return {key: rng.choice(_TYPED_VALUES) for key in keys}


def _typed_trace(seed: int) -> Trace:
    """Rows through all three ingest paths: ``Span``, ``publish_rows``
    mappings and ``publish_many`` row tuples, with empty tags among
    them."""
    rng = random.Random(seed)
    server = TracingServer()
    tid = server.begin_trace(model="typed")
    trace = server.stream(tid).trace
    spans = []
    for i in range(rng.randint(3, 30)):
        start = rng.randint(0, 10**6)
        spans.append(Span(
            rng.choice(_NAMES), start, start + rng.randint(0, 1000),
            rng.choice(list(Level)), span_id=5000 + i,
            kind=rng.choice(list(SpanKind)), tags=_typed_tags(rng),
        ))
    for span in spans:
        path = rng.randrange(3)
        if path == 0:
            server.publish(span)
        elif path == 1:
            server.publish_rows(tid, [dict(
                name=span.name, start_ns=span.start_ns, end_ns=span.end_ns,
                level=span.level, span_id=span.span_id, kind=span.kind,
                tags=span.tags,
            )])
        else:
            server.publish_many(span_rows([span]))
    return server.end_trace(tid)


def _capture_with_every_converter() -> Trace:
    """A real capture: model, layer, library and GPU tracer rows."""
    from repro.core import MLLibG, ProfilingConfig, XSPSession
    from repro.models import get_model

    run = XSPSession("Tesla_V100", "tensorflow_like").profile(
        get_model(53).graph, 2, ProfilingConfig(levels=MLLibG)
    )
    tracers = {v.tags["tracer"] for v in run.trace.spans}
    assert tracers == {"model_tracer", "layer_tracer", "library_tracer",
                       "gpu_tracer"}
    return run.trace


def _assert_tag_readers_agree(trace: Trace) -> None:
    table = trace.table
    for row, view in enumerate(trace.spans):
        items = list(table.iter_tags(row))
        for reading in (list(table.peek_tags(row).items()),
                        list(view.tags.items())):
            assert [k for k, _ in reading] == [k for k, _ in items]
            for (_, a), (_, b) in zip(reading, items):
                assert a is b  # same value object: same value and type


@pytest.mark.parametrize("seed", range(15))
def test_tag_readers_agree_on_typed_values(seed):
    trace = _typed_trace(seed)
    nbytes = trace.table.nbytes
    _assert_tag_readers_agree(trace)
    assert trace.table.nbytes == nbytes
    once = trace_to_json(trace)
    assert trace_to_json(trace_from_json(once)) == once
    assert trace.table.nbytes == nbytes


def test_tag_readers_agree_on_a_capture_from_every_converter():
    trace = _capture_with_every_converter()
    nbytes = trace.table.nbytes
    _assert_tag_readers_agree(trace)
    assert trace.table.nbytes == nbytes
    once = trace_to_json(trace)
    assert trace_to_json(trace_from_json(once)) == once
    assert trace.table.nbytes == nbytes


# -- format v2: the table's columns on disk; v1 still loads -----------------


def _v1_document(trace: Trace) -> dict:
    """``trace`` as a format-v1 document: one JSON object per span."""
    table = trace.table
    return {
        "format_version": 1,
        "trace_id": trace.trace_id,
        "metadata": {k: jsonable(v) for k, v in trace.metadata.items()},
        "spans": [
            {
                "name": view.name,
                "start_ns": view.start_ns,
                "end_ns": view.end_ns,
                "level": view.level.name,
                "span_id": view.span_id,
                "trace_id": view.trace_id,
                "parent_id": view.parent_id,
                "kind": view.kind.value,
                "correlation_id": view.correlation_id,
                "tags": {k: jsonable(v) for k, v in view.iter_tags()},
                "logs": [
                    {"timestamp_ns": entry.timestamp_ns,
                     "fields": {str(k): jsonable(v)
                                for k, v in entry.fields.items()}}
                    for entry in table.peek_logs(row)
                ],
            }
            for row, view in enumerate(trace.spans)
        ],
    }


def _typed_columns(trace: Trace) -> dict:
    """`_columns` plus per-row trace ids, with each tag value's type."""
    columns = _columns(trace)
    columns["trace_id"] = trace.table.trace_id.tolist()
    columns["tag_types"] = [
        [(k, type(v)) for k, v in tags.items()] for tags in columns["tags"]
    ]
    return columns


def _mixed_trace(seed: int) -> Trace:
    """A fuzz trace plus rows that keep trace ids of their own."""
    trace = _random_trace(seed)
    for i, row_trace_id in enumerate((0, 7, 7, trace.trace_id + 1)):
        trace.table.append(Span(
            f"foreign{i}", i, i + 1, Level.LAYER, span_id=10**6 + i,
            trace_id=row_trace_id,
            tags={"shape": (1, i), "meta": {"k": [i, (i,)]}},
        ))
    return trace


@pytest.mark.parametrize("seed", range(25))
def test_v3_round_trip_is_a_column_fixpoint(seed):
    once = trace_to_json(_mixed_trace(seed))
    restored = trace_from_json(once)
    assert json.loads(once)["format_version"] == 3
    assert restored.table.to_columns() == json.loads(once)["table"]
    assert trace_to_json(restored) == once


@pytest.mark.parametrize("seed", range(25))
def test_v2_round_trip_is_a_column_fixpoint(seed):
    """The v2 reader is lossless: a v2 file loads to the table the v2
    writer wrote it from."""
    once = trace_v2_oracle.trace_to_json(_mixed_trace(seed))
    restored = trace_from_json(once)
    assert trace_v2_oracle.table_to_columns(restored.table) == \
        json.loads(once)["table"]
    assert trace_v2_oracle.trace_to_json(restored) == once


def _exact_tags(trace: Trace) -> list[str]:
    """Every row's tags as ``repr`` text, which tells ``1``/``1.0``/
    ``True``, ``-0.0``/``0.0`` and a list from a tuple apart, however
    deep they sit."""
    return [repr(trace.table.peek_tags(row)) for row in range(len(trace))]


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("make", [_random_trace, _mixed_trace])
def test_v2_and_v3_files_load_alike(make, seed):
    """The oracle's v2 file and the v3 file of one trace load to equal
    columns, exactly typed tags and byte-equal Chrome traces."""
    trace = make(seed)
    from_v2 = trace_from_json(trace_v2_oracle.trace_to_json(trace))
    from_v3 = trace_from_json(trace_to_json(trace))
    assert from_v2.table.to_columns() == from_v3.table.to_columns()
    assert _exact_tags(from_v2) == _exact_tags(from_v3)
    assert trace_to_chrome(from_v2) == trace_to_chrome(from_v3)
    assert trace_to_json(from_v2) == trace_to_json(from_v3)


@pytest.mark.parametrize("values,pool", [
    ([1, 1.0, True, -0.0, 0.0, [1], [True], [1.0], (1,), "1", None],
     '[1, 1.0, true, -0.0, 0.0, [1], [true], [1.0], "1", null]'),
    # A column of floats only is pooled by bit pattern.
    ([0.0, -0.0, 0.0, 1.5, -0.0], "[0.0, -0.0, 1.5]"),
])
def test_the_pool_keeps_values_json_tells_apart(values, pool):
    trace = Trace(trace_id=1)
    trace.extend([
        Span(f"s{i}", i, i + 1, Level.LAYER, span_id=i + 1, tags={"x": value})
        for i, value in enumerate(values)
    ])
    text = trace_to_json(trace)
    assert json.dumps(json.loads(text)["table"]["value_pool"]) == pool
    loaded = trace_from_json(text).table
    assert [repr(loaded.peek_tags(row)["x"]) for row in range(len(values))] \
        == [repr(jsonable(value)) for value in values]


def test_rows_of_a_v3_file_share_their_pool_values():
    """Loading a v3 file builds each pool value once: rows whose tags
    hold equal lists hold the same list object (tag values are
    read-only), where a v2 file gives every row a list of its own."""
    trace = Trace(trace_id=1)
    trace.extend([
        Span("k", i, i + 1, Level.GPU_KERNEL, span_id=i + 1,
             tags={"grid": (8, 1, 1)})
        for i in range(3)
    ])
    grids = [
        [loaded.table.peek_tags(row)["grid"] for row in range(3)]
        for loaded in (trace_from_json(trace_to_json(trace)),
                       trace_from_json(trace_v2_oracle.trace_to_json(trace)))
    ]
    assert grids[0] == grids[1] == [[8, 1, 1]] * 3
    assert len({id(grid) for grid in grids[0]}) == 1
    assert len({id(grid) for grid in grids[1]}) == 3


@pytest.mark.parametrize("seed", range(25))
def test_v1_document_loads_to_the_columns_of_its_v2_export(seed):
    trace = _mixed_trace(seed)
    from_v1 = trace_from_dict(json.loads(json.dumps(_v1_document(trace))))
    from_v2 = trace_from_json(trace_v2_oracle.trace_to_json(trace))
    assert _typed_columns(from_v1) == _typed_columns(from_v2)
    assert from_v1.metadata == from_v2.metadata
    assert trace_to_json(from_v1) == trace_to_json(from_v2)


def test_empty_traces_round_trip():
    empty = Trace(trace_id=3, metadata={"model": "none"})
    restored = trace_from_json(trace_to_json(empty))
    assert len(restored) == 0 and restored.metadata == {"model": "none"}
    assert trace_to_json(restored) == trace_to_json(empty)
    assert len(trace_from_dict(_v1_document(empty))) == 0
    assert json.loads(trace_to_chrome(restored))["traceEvents"][0]["ph"] == "M"


def test_container_values_survive_as_json():
    values = {"tuple": (1, 2), "list": [3, "x"], "dict": {"a": (4, None)},
              "nested": [(1, [2, (3,)]), {"b": {"c": (5, 6.5)}}]}
    trace = Trace(trace_id=1)
    trace.add(Span("s", 0, 1, Level.LAYER, span_id=1, tags=values))
    restored = trace_from_json(trace_to_json(trace))
    assert restored.table.peek_tags(0) == {
        "tuple": [1, 2], "list": [3, "x"], "dict": {"a": [4, None]},
        "nested": [[1, [2, [3]]], {"b": {"c": [5, 6.5]}}],
    }


def test_export_stops_at_the_watermark_of_a_half_appended_row():
    """Every column, the pools, the value list and the log store hold a
    row whose watermark is not yet published: no export shows it."""
    trace = _random_trace(3)
    before, chrome = trace_to_json(trace), trace_to_chrome(trace)
    table = trace.table
    for column, value in ((table.span_id, 99), (table.start_ns, 0),
                          (table.end_ns, 1), (table.parent_id, -1),
                          (table.correlation_id, -1), (table.trace_id, 1),
                          (table.level, 1), (table.kind, 0),
                          (table.name_id, table._names["half-written"]),
                          (table.tag_schema, table._schemas[("half",)]),
                          (table.tag_start, len(table._values))):
        column.append(value)
    table._values.append("half")
    table._logs[len(table.span_id) - 1] = [LogEntry(0, {"half": True})]
    assert trace_to_json(trace) == before
    assert trace_to_chrome(trace) == chrome


def _small_trace() -> Trace:
    trace = Trace(trace_id=1)
    trace.add(Span("a", 0, 5, Level.MODEL, span_id=1, tags={"x": 1}))
    trace.add(Span("b", 1, 2, Level.LAYER, span_id=2, parent_id=1))
    return trace


def _v2_table() -> dict:
    return trace_v2_oracle.table_to_columns(_small_trace().table)


def _v3_table() -> dict:
    return json.loads(trace_to_json(_small_trace()))["table"]


#: Each fault a v2 ``table`` object can have, as an edit of a good one.
V2_FAULTS = {
    "unequal column lengths": lambda t: t["end_ns"].pop(),
    "missing column": lambda t: t.pop("kind"),
    "unknown level code": lambda t: t["level"].__setitem__(0, 9),
    "unknown kind code": lambda t: t["kind"].__setitem__(0, 3),
    "name id out of range": lambda t: t["name_id"].__setitem__(1, 2),
    "schema id out of range": lambda t: t["tag_schema"].__setitem__(1, 5),
    "values do not fit the schemas": lambda t: t["values"].append(2),
    "end before start": lambda t: t["end_ns"].__setitem__(1, 0),
    "integer beyond int64": lambda t: t["parent_id"].__setitem__(1, 10**30),
    "string timestamp": lambda t: t["start_ns"].__setitem__(0, "0"),
    "duplicated span id": lambda t: t["span_id"].__setitem__(1, 1),
    "names not strings": lambda t: t["names"].__setitem__(0, 7),
    "malformed log": lambda t: t["logs"].append([0, "x"]),
}


def _packed(typecode: str, items: list) -> dict:
    return {"typecode": typecode, "length": len(items),
            "data": b64encode(array(typecode, items)).decode()}


def _cut_a_byte(column: dict) -> None:
    column["data"] = b64encode(b64decode(column["data"])[:-1]).decode()


#: Each fault only a v3 ``table`` object can have, as an edit of a good
#: one, with the part of the table its error must name.
V3_FAULTS = {
    "bad base64": (lambda t: t["start_ns"].update(
        data="*" + t["start_ns"]["data"][1:]), "start_ns"),
    "wrong byte length": (lambda t: _cut_a_byte(t["end_ns"]), "end_ns"),
    "unknown typecode": (lambda t: t["level"].update(typecode="z"), "level"),
    "length mismatch": (lambda t: t["span_id"].update(length=3), "span_id"),
    "code outside the pool": (lambda t: t.update(value_codes=_packed(
        "B", [len(t["value_pool"])])), "value_codes"),
    "v2 lists in a v3 document": (lambda t: t.update(
        parent_id=[-1, 1]), "parent_id"),
}


def _unchanged_by(trace: Trace, load) -> None:
    """Run ``load`` (which must raise ``ValueError``) and check that the
    table is as it was."""
    def state():
        return (trace_to_json(trace), trace.table.nbytes,
                len(trace.table.span_id), len(trace.table.tag_start))

    before = state()
    with pytest.raises(ValueError) as raised:
        load()
    assert state() == before
    return str(raised.value)


@pytest.mark.parametrize("fault", sorted(V2_FAULTS))
def test_a_malformed_v2_table_raises_and_leaves_the_table_unchanged(fault):
    document = _v2_table()
    V2_FAULTS[fault](document)
    trace = _random_trace(1)
    _unchanged_by(trace, lambda: trace.table.extend_columns(document, 2))


@pytest.mark.parametrize("fault", sorted(V3_FAULTS))
def test_a_malformed_v3_table_raises_and_leaves_the_table_unchanged(fault):
    document = _v3_table()
    edit, part = V3_FAULTS[fault]
    edit(document)
    trace = _random_trace(1)
    message = _unchanged_by(trace, lambda: trace.table.extend_columns(document))
    assert repr(part) in message


def _appends_to_a_non_empty_table(document: dict, version: int) -> None:
    trace = _random_trace(2)
    n = len(trace)
    trace.table.extend_columns(document, version)
    assert [trace.spans[r].name for r in (n, n + 1)] == ["a", "b"]
    assert trace.table.peek_tags(n) == {"x": 1}
    assert trace.spans[n + 1].parent_id == 1


def test_extend_columns_appends_to_a_non_empty_table():
    _appends_to_a_non_empty_table(_v3_table(), 3)


def test_extend_columns_appends_a_v2_table_to_a_non_empty_table():
    _appends_to_a_non_empty_table(_v2_table(), 2)


def test_reading_a_loaded_v3_trace_leaves_its_pool_unchanged():
    """Profiling, advising, diffing, reporting and exporting a loaded
    capture mutate none of the tag values its rows share."""
    from repro.analysis.diff import diff_profiles
    from repro.analysis.diff.sources import profile_from_trace
    from repro.analysis.report import full_report
    from repro.insights import advise

    trace = trace_from_json(trace_to_json(_capture_with_every_converter()))
    shared = {id(value): value for value in trace.table._values}
    assert len(shared) < len(trace.table._values)
    before = [repr(value) for value in shared.values()]
    file = trace_to_json(trace)
    profile = profile_from_trace(trace)
    advise(profile)
    diff_profiles(profile, profile).to_json()
    full_report(profile)
    trace_to_chrome(trace)
    assert [repr(value) for value in shared.values()] == before
    assert trace_to_json(trace) == file

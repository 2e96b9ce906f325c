"""The Chrome export equals the dict-per-event writer byte for byte.

``trace_to_chrome`` encodes each column once and writes events from
templates; ``chrome_oracle.oracle_trace_to_chrome`` is the writer it
replaced, one dict per event passed to ``json.dumps``.  The two must
agree on every trace: both fuzz corpora of ``test_export_fuzz.py``,
fresh and reloaded, and the cases where a template could drift from
what ``json.dumps`` writes (equal values of different types, floats
without a JSON literal, escapes, tag keys that clash with the fixed
``args`` fields, ids and times at the int64 limits).

The tag text comes from the table's value pool: the pool and codes kept
from a v3 file, or a pool built cold from the values.  Both must give
the same bytes, also for a file whose pool is out of order or repeats a
JSON text, and for rows appended after a load.
"""

from __future__ import annotations

import copy
import json
from array import array
from base64 import b64decode, b64encode
from itertools import groupby
from operator import itemgetter

import pytest
from chrome_oracle import iter_rows, oracle_trace_to_chrome
from test_export_fuzz import _mixed_trace, _Opaque, _random_trace, _typed_trace

from repro.tracing import Level, Span, SpanKind, Trace
from repro.tracing.export import (trace_from_dict, trace_from_json,
                                  trace_to_chrome, trace_to_json)
from repro.tracing.table import KINDS, NONE_ID, json_text, json_texts, row_of

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
LAUNCH, EXECUTION = KINDS.index(SpanKind.LAUNCH), KINDS.index(SpanKind.EXECUTION)


def _assert_matches_oracle(trace: Trace) -> None:
    text = trace_to_chrome(trace)
    assert text == oracle_trace_to_chrome(trace)
    json.loads(text)  # and it parses


def _rows_trace(rows, trace_id=5, **metadata) -> Trace:
    trace = Trace(trace_id=trace_id, metadata=metadata)
    trace.add_rows(rows)
    return trace


@pytest.mark.parametrize("seed", range(200))
def test_random_traces_match_the_oracle(seed):
    trace = _random_trace(seed)
    _assert_matches_oracle(trace)
    _assert_matches_oracle(trace_from_json(trace_to_json(trace)))


@pytest.mark.parametrize("seed", range(200))
def test_mixed_traces_match_the_oracle(seed):
    trace = _mixed_trace(seed)
    _assert_matches_oracle(trace)
    _assert_matches_oracle(trace_from_json(trace_to_json(trace)))


def test_a_capture_from_every_converter_matches_the_oracle():
    from test_export_fuzz import _capture_with_every_converter

    trace = _capture_with_every_converter()
    _assert_matches_oracle(trace)
    _assert_matches_oracle(trace_from_json(trace_to_json(trace)))


#: One tag column per case, each value on its own row.
TAG_COLUMNS = {
    "bool, int and float": [True, 1, 1.0, False, 0, 0.0, 2],
    "bool and int in lists": [[True, 1], (1, 1.0), [1, 1], (1, 1), [False]],
    "int lists": [[1, 2], (1, 2), [], (), [3], (-(1 << 70), INT64_MAX)],
    "finite floats": [0.0, -0.0, 0.0, 1.5, 1e300, 5e-324, 0.1, 1e16,
                      123456789.123, -2.5e-7],
    "non-finite floats": [float("nan"), float("inf"), float("-inf"), 1e300,
                          -0.0, 5e-324],
    "strings": ["", "gpu", "ü", "カーネル", "emoji🔥", 'q"uote\\', "%s %d",
                "\x00\n\t"],
    "opaque and bytes": [_Opaque(3), b"\x00raw", _Opaque(3), b""],
    "dicts with int keys": [{7: "int-key", "k": (1, 2)}, {1: {2: [3]}}, {}],
    "nested lists": [[(1, 2), {"nested": (3, 4)}], [[1, [2, (3,)]]], [None]],
    "ints": [0, -1, INT64_MIN, INT64_MAX, 1 << 80, 7, 7],
    "none and mixed": [None, "x", 1, [1], None],
    "int subclass": [Level.LAYER, 3, Level.MODEL],
}


@pytest.mark.parametrize("case", sorted(TAG_COLUMNS))
def test_tag_columns_match_the_oracle(case):
    rows = [
        row_of(f"s{i}", i, i + 1, Level.LAYER, span_id=i + 1,
               tags={"value": value, "other": i})
        for i, value in enumerate(TAG_COLUMNS[case])
    ]
    _assert_matches_oracle(_rows_trace(rows))


def test_names_and_keys_that_need_escaping_match_the_oracle():
    names = ["", "ü", "カーネル", "emoji🔥", 'q"uote', "back\\slash",
             "%s %(x)s %%", "tab\there", "\x7f\x00", "Upper Case"]
    rows = [
        row_of(name, i, i + 3, Level.LIBRARY, span_id=i + 1,
               tags={name: i, f"%{name}": name})
        for i, name in enumerate(names)
    ]
    _assert_matches_oracle(_rows_trace(rows, model="%s moдель"))


def test_empty_and_shared_tag_schemas_match_the_oracle():
    rows = [
        row_of("a", 0, 5, Level.MODEL, span_id=1),
        row_of("b", 1, 2, Level.LAYER, span_id=2, parent_id=1, tags={}),
        row_of("c", 2, 3, Level.LAYER, span_id=3, parent_id=1,
               tags={"x": 1, "y": "y"}),
        row_of("d", 3, 4, Level.LAYER, span_id=4, parent_id=1,
               tags={"y": "y", "x": 1}),
        row_of("e", 4, 5, Level.LAYER, span_id=5, parent_id=1),
    ]
    _assert_matches_oracle(_rows_trace(rows))
    _assert_matches_oracle(_rows_trace([]))
    _assert_matches_oracle(Trace(trace_id=0, metadata={"application": "app"}))


def test_fresh_tuples_next_to_loaded_lists_match_the_oracle():
    """Rows of one schema hold tuples from a capture and lists from a
    file that was appended to the same table."""
    def capture(first):
        return _rows_trace([
            row_of("k", i, i + 2, Level.GPU_KERNEL, span_id=first + i,
                   tags={"grid": (i, 1, 1), "block": (32, i % 2, 1)})
            for i in range(6)
        ])

    trace = capture(1)
    trace.table.extend_columns(json.loads(trace_to_json(capture(100)))["table"])
    assert {type(v.tags["grid"]) for v in trace.spans} == {tuple, list}
    _assert_matches_oracle(trace)


def test_tag_keys_that_clash_with_the_fixed_args_match_the_oracle():
    """A tag named like a fixed ``args`` field replaces its value in
    place; a repeated key keeps its first place and last value; non-str
    keys are written as json writes dict keys, ``1`` and ``True`` being
    one key."""
    schemas = [
        (("kind", "x"), ("tagged-kind", 1)),
        (("span_id", "correlation_id"), (_Opaque(1), [1, 2])),
        (("parent_id",), (None,)),
        (("a", "b", "a"), (1, 2, 3)),
        ((1, True, 1.0), ("one", "true", "float")),
        ((None, False, 2.5, 0), ("n", "f", "x", "z")),
        (("1", 1), ("str", "int")),
    ]
    rows = [
        ("s", i, i + 1, int(Level.LAYER), LAUNCH if i % 2 else EXECUTION,
         i + 1, NONE_ID, 40 + i, keys, values)
        for i, (keys, values) in enumerate(schemas * 2)
    ]
    _assert_matches_oracle(_rows_trace(rows))


def test_launch_and_execution_rows_without_correlation_match_the_oracle():
    rows = [
        row_of("launch", 0, 5, Level.GPU_KERNEL, span_id=1,
               kind=SpanKind.LAUNCH, correlation_id=7),
        row_of("launch", 1, 5, Level.GPU_KERNEL, span_id=2,
               kind=SpanKind.LAUNCH),
        row_of("exec", 6, 9, Level.GPU_KERNEL, span_id=3,
               kind=SpanKind.EXECUTION, correlation_id=7),
        row_of("exec", 6, 9, Level.GPU_KERNEL, span_id=4,
               kind=SpanKind.EXECUTION),
        row_of("internal", 6, 9, Level.LAYER, span_id=5, correlation_id=7),
    ]
    _assert_matches_oracle(_rows_trace(rows))


def test_int64_extremes_match_the_oracle():
    """Times and ids at the int64 limits, with ``end - start`` past them
    (a numpy int64 subtraction would wrap)."""
    intervals = [
        (INT64_MIN, INT64_MAX),
        (-1, INT64_MAX),
        (0, INT64_MAX),
        (INT64_MIN, 0),
        (INT64_MIN, INT64_MIN),
        (INT64_MAX, INT64_MAX),
        (-1, 0),
        (-999, -1),
        (10**15 + 1, 10**16 + 7),
    ]
    rows = [
        row_of("x", start, end, Level.GPU_KERNEL, span_id=INT64_MAX - i,
               parent_id=INT64_MIN if i % 2 else INT64_MAX,
               kind=SpanKind.LAUNCH, correlation_id=INT64_MAX - 2 * i)
        for i, (start, end) in enumerate(intervals)
    ]
    _assert_matches_oracle(_rows_trace(rows, trace_id=INT64_MAX))
    _assert_matches_oracle(_rows_trace(rows, trace_id=INT64_MIN))


def test_span_objects_with_logs_match_the_oracle():
    trace = Trace(trace_id=9, metadata={"model": None, "application": "app"})
    span = Span("s", 0, 10, Level.MODEL, span_id=1, tags={"x": (1,)})
    span.log(5, event="ignored by the export")
    trace.add(span)
    _assert_matches_oracle(trace)


# -- the value pool: kept from a v3 file, or built cold ----------------------


def _loaded(trace: Trace) -> Trace:
    return trace_from_json(trace_to_json(trace))


def _cold_copy(trace: Trace) -> Trace:
    """The rows of ``trace`` ingested again through ``append_rows``, each
    with its own trace id, so the copy's value pool is built cold."""
    cold = Trace(trace_id=trace.trace_id, metadata=dict(trace.metadata))
    table = trace.table
    rows = zip(table.trace_id[:len(table)], iter_rows(table))
    for trace_id, group in groupby(rows, key=itemgetter(0)):
        cold.table.append_rows([row for _, row in group], trace_id)
    return cold


def _assert_pool_paths_agree(trace: Trace) -> None:
    """The export of the loaded trace (the file's pool) equals the
    oracle's and the export of its rows ingested cold."""
    loaded = _loaded(trace)
    n = len(loaded)
    assert loaded.table.value_pool(n)[0] is loaded.table._file_pool[1]
    text = trace_to_chrome(loaded)
    assert text == oracle_trace_to_chrome(loaded)
    assert text == trace_to_chrome(_cold_copy(loaded))


@pytest.mark.parametrize("seed", range(40))
def test_loaded_and_cold_pools_export_alike(seed):
    _assert_pool_paths_agree(_random_trace(seed))
    _assert_pool_paths_agree(_mixed_trace(seed))
    _assert_pool_paths_agree(_typed_trace(seed))


@pytest.mark.parametrize("case", sorted(TAG_COLUMNS))
def test_loaded_tag_columns_match_the_oracle(case):
    """-0.0/0.0, 1/1.0/True, [1]/[True], NaN and ±inf, tuples next to
    lists and mixed columns, through a file's pool."""
    rows = [
        row_of(f"s{i}", i, i + 1, Level.LAYER, span_id=i + 1,
               tags={"value": value, "other": i, "same": value})
        for i, value in enumerate(TAG_COLUMNS[case])
    ]
    _assert_pool_paths_agree(_rows_trace(rows))


def test_loaded_tag_keys_that_clash_with_the_fixed_args_match_the_oracle():
    schemas = [
        (("kind", "x"), ("tagged-kind", 1.0)),
        (("span_id", "correlation_id"), (_Opaque(1), [1, 2])),
        (("parent_id",), (None,)),
        (("parent_id", "kind"), (-0.0, [True])),
        (("a", "b", "a"), (1, 2, 3)),
        (("correlation_id", "y"), (float("nan"), (1, 2))),
    ]
    rows = [
        ("s", i, i + 1, int(Level.LAYER), LAUNCH if i % 2 else EXECUTION,
         i + 1, NONE_ID, 40 + i, keys, values)
        for i, (keys, values) in enumerate(schemas * 3)
    ]
    _assert_pool_paths_agree(_rows_trace(rows))


def test_rows_appended_to_a_loaded_table_export_from_a_cold_pool():
    loaded = _loaded(_mixed_trace(4))
    kept = loaded.table.value_pool(len(loaded))[0]
    loaded.table.append(Span("late", 0, 1, Level.LAYER, span_id=10**7,
                             tags={"shape": (1, 2), "x": -0.0, "y": True}))
    # Each call now builds a pool of its own: none is stored.
    pool = loaded.table.value_pool(len(loaded))[0]
    assert pool is not kept
    assert loaded.table.value_pool(len(loaded))[0] is not pool
    _assert_matches_oracle(loaded)
    assert trace_to_chrome(loaded) == trace_to_chrome(_cold_copy(loaded))


def test_a_v3_file_loaded_into_a_non_empty_table_exports_from_a_cold_pool():
    trace = _random_trace(5)
    document = json.loads(trace_to_json(_typed_trace(5)))
    trace.table.extend_columns(document["table"])
    assert trace.table._file_pool is None
    _assert_matches_oracle(trace)
    assert trace_to_chrome(trace) == trace_to_chrome(_cold_copy(trace))


def _handmade(trace: Trace) -> tuple[dict, dict]:
    """The v3 document of ``trace`` and a copy whose pool is reversed
    and repeats each entry's JSON text once more: the odd cells point at
    the repeat."""
    document = json.loads(trace_to_json(trace))
    table = document["table"]
    pool = table["value_pool"]
    codes = array(table["value_codes"]["typecode"])
    codes.frombytes(b64decode(table["value_codes"]["data"]))
    size = len(pool)
    odd = copy.deepcopy(document)
    odd["table"]["value_pool"] = pool[::-1] + pool
    odd["table"]["value_codes"] = {
        "typecode": "I", "length": len(codes),
        "data": b64encode(array("I", [
            size - 1 - code if cell % 2 else size + code
            for cell, code in enumerate(codes)
        ])).decode(),
    }
    return document, odd


@pytest.mark.parametrize("seed", range(10))
def test_a_handmade_pool_out_of_order_with_repeats_loads_and_exports(seed):
    document, odd = _handmade(_mixed_trace(seed))
    canonical = trace_from_dict(document)
    loaded = trace_from_dict(odd)
    assert [repr(loaded.table.peek_tags(r)) for r in range(len(loaded))] == \
        [repr(canonical.table.peek_tags(r)) for r in range(len(canonical))]
    text = trace_to_chrome(loaded)
    assert text == oracle_trace_to_chrome(loaded) == trace_to_chrome(canonical)
    # A re-save keeps the file's numbering (narrowed codes), and loads
    # back to the same rows; once a row is appended the pool is rebuilt
    # in order of first appearance.
    resaved = json.loads(trace_to_json(loaded))
    assert json.dumps(resaved["table"]["value_pool"]) == \
        json.dumps(odd["table"]["value_pool"])
    assert resaved["table"]["value_codes"]["typecode"] in "BH"
    assert trace_to_chrome(trace_from_dict(resaved)) == text
    assert trace_to_json(trace_from_dict(resaved)) == json.dumps(resaved)
    for trace in (loaded, canonical):
        trace.table.append(Span("late", 0, 1, Level.LAYER, span_id=10**7))
    assert trace_to_json(loaded) == trace_to_json(canonical)


#: The models of a 20k-span application capture.
APP_MODELS = (49, 9, 49, 49, 4, 6, 4, 9, 36, 37, 26)


def test_the_export_encodes_each_used_pool_entry_once_per_column(monkeypatch):
    """On a loaded application capture, the tag text encodes at most one
    text per (schema, key) column and pool entry that column uses."""
    import numpy as np

    from repro.core import ProfilingConfig, XSPSession
    from repro.models import get_model
    from repro.tracing import export

    trace, _ = XSPSession("Tesla_V100", "tensorflow_like").profile_application(
        [(get_model(m).graph, 1) for m in APP_MODELS],
        config=ProfilingConfig(metrics=()))
    loaded = _loaded(trace)
    table, n = loaded.table, len(loaded)
    _, codes = table.value_pool(n)
    starts = np.array(table.tag_start[:n])
    used = [
        len(np.unique(codes[starts[rows] + i]))
        for keys, rows in table.schema_groups(n) for i in range(len(keys))
    ]
    encoded, texts = [], []
    monkeypatch.setattr(export, "json_texts", lambda values: (
        encoded.append(len(values)) or json_texts(values)))
    monkeypatch.setattr(export, "json_text", lambda value: (
        texts.append(value) or json_text(value)))
    text = trace_to_chrome(loaded)
    monkeypatch.undo()
    assert text == trace_to_chrome(trace)
    assert len(codes) > 90_000 and sum(used) < len(codes) / 50
    assert sum(encoded) <= sum(used)
    # Every other text is one per name, level (its "cat"), kind and key,
    # plus the process id and the metadata events (two per level).
    names, schemas = table.pools()
    assert len(texts) <= (len(names) + 3 * len(set(table.level)) + len(KINDS)
                          + sum(map(len, schemas)) + 2)

"""The Chrome export equals the dict-per-event writer byte for byte.

``trace_to_chrome`` encodes each column once and writes events from
templates; ``chrome_oracle.oracle_trace_to_chrome`` is the writer it
replaced, one dict per event passed to ``json.dumps``.  The two must
agree on every trace: both fuzz corpora of ``test_export_fuzz.py``,
fresh and reloaded, and the cases where a template could drift from
what ``json.dumps`` writes (equal values of different types, floats
without a JSON literal, escapes, tag keys that clash with the fixed
``args`` fields, ids and times at the int64 limits).
"""

from __future__ import annotations

import json

import pytest
from chrome_oracle import oracle_trace_to_chrome
from test_export_fuzz import _mixed_trace, _Opaque, _random_trace

from repro.tracing import Level, Span, SpanKind, Trace
from repro.tracing.export import trace_from_json, trace_to_chrome, trace_to_json
from repro.tracing.table import KINDS, NONE_ID, row_of

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

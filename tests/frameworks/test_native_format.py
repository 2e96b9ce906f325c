"""The column-stored native formats against the dict-per-layer oracle:
each framework's ``parse(serialize(records))`` returns exactly the records
the oracle's round trip does, on zoo captures and fuzzed record lists."""

from __future__ import annotations

from operator import itemgetter

import native_format_oracle as oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.session import FRAMEWORKS
from repro.frameworks import RunOptions
from repro.frameworks.profiler_format import (
    LayerRecord,
    mx_profile,
    parse_mx_profile,
    parse_tf_step_stats,
    tf_step_stats,
)
from repro.models import get_model
from repro.sim import CudaRuntime, VirtualClock, get_system

FORMATS = {
    "tensorflow_like": ((tf_step_stats, parse_tf_step_stats),
                        (oracle.tf_step_stats, oracle.parse_tf_step_stats)),
    "mxnet_like": ((mx_profile, parse_mx_profile),
                   (oracle.mx_profile, oracle.parse_mx_profile)),
}


def _round_trips(framework: str, records: list[LayerRecord]):
    (write, parse), (oracle_write, oracle_parse) = FORMATS[framework]
    return parse(write(records)), oracle_parse(oracle_write(records))


def _exact(records) -> list[tuple]:
    """Records with each field's type, so ``1 == 1.0`` cannot pass."""
    return [tuple((type(v), v) for v in record) for record in records]


def _captured_records(framework: str, model: int, batch: int):
    """The records a profiled prediction of a zoo model serializes."""
    fw = FRAMEWORKS[framework](
        CudaRuntime(get_system("Tesla_V100"), VirtualClock()))
    captured = []
    serialize = fw.serialize_profile

    def capture(records):
        captured.append(list(records))
        return serialize(records)

    fw.serialize_profile = capture
    fw.set_profiler_state(True)
    document = fw.predict(fw.load(get_model(model).graph), batch,
                          RunOptions(trace_level="FULL")).native_profile
    (records,) = captured
    return records, document


@pytest.mark.parametrize("framework", sorted(FORMATS))
@pytest.mark.parametrize("model,batch", [(7, 1), (48, 8), (53, 2), (2, 4)])
def test_zoo_capture_round_trips_like_the_oracle(framework, model, batch):
    records, document = _captured_records(framework, model, batch)
    parse = FORMATS[framework][0][1]
    new, old = _round_trips(framework, records)
    assert _exact(new) == _exact(old) == _exact(records)
    assert _exact(parse(document)) == _exact(records)


_records = st.lists(
    st.builds(
        LayerRecord,
        index=st.integers(0, 40),  # repeats: the sort must be stable
        name=st.text(max_size=12),
        layer_type=st.sampled_from(["Conv2D", "Mul", "Relu", "Data"]),
        shape=st.lists(st.integers(1, 4096), max_size=4).map(tuple),
        start_ns=st.integers(0, 2**62),
        end_ns=st.integers(0, 2**40),  # a duration, made absolute below
        alloc_bytes=st.integers(0, 2**40),
    ).map(lambda r: r._replace(end_ns=r.start_ns + r.end_ns)),
    max_size=40,
)


@pytest.mark.parametrize("framework", sorted(FORMATS))
@settings(max_examples=150, deadline=None)
@given(records=_records)
@example(records=[LayerRecord(3, "a", "Relu", (), 5, 5, 0),
                  LayerRecord(1, "b", "Data", (1,), 0, 0, 0),
                  LayerRecord(3, "c", "Mul", (2, 3), 7, 9, 8),
                  LayerRecord(1, "d", "Mul", (), 2, 2, 0)])
def test_fuzzed_records_round_trip_like_the_oracle(framework, records):
    new, old = _round_trips(framework, records)
    assert _exact(new) == _exact(old)
    # Exact on the clock's range; beyond it the float microseconds decide
    # the last nanosecond, identically on both sides.
    if all(r.end_ns < 2**50 for r in records):
        assert new == sorted(records, key=itemgetter(0))


@pytest.mark.parametrize("framework", sorted(FORMATS))
def test_large_start_loses_the_same_nanosecond(framework):
    start = 2**60 + 1  # not representable in float microseconds
    records = [LayerRecord(1, "late", "Relu", (1,), start, start + 3, 0)]
    new, old = _round_trips(framework, records)
    assert new[0].start_ns != start
    assert _exact(new) == _exact(old)


@pytest.mark.parametrize("framework", sorted(FORMATS))
def test_out_of_order_indices_sort_stably(framework):
    records = [LayerRecord(i % 3, f"l{i}", "Relu", (i + 1,), i, i + 1, i)
               for i in range(9, -1, -1)]
    new, old = _round_trips(framework, records)
    assert [r.name for r in new] == [r.name for r in old] == [
        "l9", "l6", "l3", "l0", "l7", "l4", "l1", "l8", "l5", "l2"]


@pytest.mark.parametrize("framework", sorted(FORMATS))
def test_no_records(framework):
    new, old = _round_trips(framework, [])
    assert new == old == []

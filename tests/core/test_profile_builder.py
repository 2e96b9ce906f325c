"""``profile_from_trace`` advances a ``ProfileBuilder`` over appended rows;
after every batch it must equal the cold derivation kept in
``profile_oracle``, on every column and on ``profile_to_dict``."""

from __future__ import annotations

import itertools
import random

import pytest
from profile_oracle import oracle_profile

from repro.core.cache import profile_to_dict
from repro.core.pipeline import profile_from_trace
from repro.tracing import Level, SpanKind, Trace
from repro.tracing.table import row_of

METADATA = {"model": "fuzz", "system": "Tesla_V100",
            "framework": "tensorflow_like", "batch": 2}
#: A parent id that never arrives.
MISSING = 10**9


def _kernel_tags(rng: random.Random) -> dict:
    tags = {"grid": (rng.randint(1, 9), 1, 1), "block": (128, 1, 1)}
    if rng.random() < 0.8:
        tags.update({
            "metric.flop_count_sp": rng.choice((0.0, rng.uniform(0, 1e9))),
            "metric.dram_read_bytes": rng.uniform(0, 1e7),
            "metric.dram_write_bytes": rng.uniform(0, 1e7),
            "metric.achieved_occupancy": rng.random(),
        })
    return tags


def _capture(rng: random.Random) -> list[tuple]:
    """Rows of a random capture: a model span, layers (some untagged or
    sharing an index), kernels under their layer or under a library API
    span, kernels outside any layer or under a span that never arrives,
    launch rows, and a duplicated span id now and then.  Some rows are
    moved ahead of their parents."""
    ids = itertools.count(1)
    model_id = next(ids)
    rows = [row_of("predict", 0, 10**7, Level.MODEL, model_id)]
    clock = 0
    for n in range(rng.randint(0, 30)):
        layer_id, start = next(ids), clock
        clock += rng.randint(100, 5000)
        tags = {"layer_type": rng.choice(("Conv2D", "Relu", "Add", "MatMul")),
                "shape": (1, rng.randint(1, 64)),
                "alloc_bytes": rng.randint(0, 10**6)}
        if rng.random() < 0.85:
            tags["layer_index"] = rng.choice((n, n, rng.randint(0, 5)))
        rows.append(row_of(f"layer{n}", start, clock, Level.LAYER, layer_id,
                           parent_id=model_id, tags=tags))
        for _ in range(rng.randint(0, 4)):
            parent = layer_id
            if rng.random() < 0.3:
                parent = next(ids)
                rows.append(row_of("cudnnConvolutionForward", start, clock,
                                   Level.LIBRARY, parent, parent_id=layer_id))
            parent = rng.choices((parent, MISSING, model_id, None),
                                 (20, 1, 1, 1))[0]
            begin = rng.randint(start, clock)
            end = rng.randint(begin, clock)
            if rng.random() < 0.3:
                rows.append(row_of("cudaLaunchKernel", begin, end,
                                   Level.GPU_KERNEL, next(ids),
                                   parent_id=parent, kind=SpanKind.LAUNCH))
            rows.append(row_of(f"kernel{rng.randint(0, 5)}", begin, end,
                               Level.GPU_KERNEL, next(ids), parent_id=parent,
                               kind=SpanKind.EXECUTION,
                               tags=_kernel_tags(rng)))
    if len(rows) > 2 and rng.random() < 0.15:
        twin = rng.choice(rows[1:])
        rows.insert(rng.randrange(len(rows) + 1),
                    (twin[0] + "-twin", *twin[1:]))
    for i in range(len(rows)):  # publish some children before parents
        if rng.random() < 0.2:
            j = rng.randint(max(0, i - 12), i)
            rows.insert(j, rows.pop(i))
    return rows


def _copy(trace: Trace) -> Trace:
    """A fresh trace holding ``trace``'s rows as they are now."""
    table = trace.table
    copy = Trace(trace.trace_id, metadata=dict(trace.metadata))
    copy.add_rows([
        (table.name_of(row), table.start_ns[row], table.end_ns[row],
         table.level[row], table.kind[row], table.span_id[row],
         table.parent_id[row], table.correlation_id[row],
         tuple(table.peek_tags(row)), tuple(table.peek_tags(row).values()))
        for row in range(len(table))
    ])
    return copy


def _assert_same(profile, oracle) -> None:
    assert profile == oracle
    assert repr(profile.layer_table.totals) == repr(oracle.layer_table.totals)
    assert repr(profile.totals) == repr(oracle.totals)
    assert profile_to_dict(profile) == profile_to_dict(oracle)


@pytest.mark.parametrize("seed", range(60))
def test_builder_equals_the_oracle_after_every_batch(seed):
    rng = random.Random(seed)
    rows = _capture(rng)
    trace = Trace(7, metadata=dict(METADATA))
    history = []
    builder = None
    at = 0
    while at < len(rows):
        batch = rows[at:at + rng.randint(1, 12)]
        at += len(batch)
        trace.add_rows(batch)
        if rng.random() < 0.1:
            executions = [row for row in range(len(trace))
                          if trace.table.level[row] == Level.GPU_KERNEL]
            if executions:
                layer = rng.choice([*trace.index.level_rows().get(
                    Level.LAYER, []), None])
                trace.table.set_parent_id(
                    rng.choice(executions),
                    None if layer is None else trace.table.span_id[layer])
                trace.touch_parents()
                assert trace.builder is None
                builder = None
        profile = profile_from_trace(trace)
        oracle = oracle_profile(trace)
        _assert_same(profile, oracle)
        # The builder advances rather than starting over, unless it went
        # cold (a duplicated span id or an ancestor not in the trace yet).
        if builder is not None and not builder.cold:
            assert trace.builder is builder
        builder = trace.builder
        assert builder.covered == len(trace)
        _assert_same(profile_from_trace(_copy(trace)), oracle)
        history.append((profile, oracle))
        for earlier, its_oracle in history:
            _assert_same(earlier, its_oracle)


def _kernel(name, span_id, parent_id, start=10, end=20):
    return row_of(name, start, end, Level.GPU_KERNEL, span_id,
                  parent_id=parent_id, kind=SpanKind.EXECUTION,
                  tags={"metric.dram_read_bytes": float(span_id)})


def test_a_kernel_waits_for_its_api_span_and_lands_ahead():
    """A kernel whose library span arrives late leaves the builder cold;
    the next call derives from row 0 and puts it ahead of a later kernel
    its layer already held."""
    trace = Trace(1)
    trace.add_rows([
        row_of("conv", 0, 100, Level.LAYER, 1, tags={"layer_index": 0}),
        _kernel("early", 3, 2),  # under the API span 2, not here yet
        _kernel("late", 4, 1, 30, 50),
    ])
    first = profile_from_trace(trace)
    assert first.kernel_table.name == ["late"]
    assert trace.builder.cold
    trace.add_rows([row_of("cudnnConvolutionForward", 0, 60, Level.LIBRARY,
                           2, parent_id=1)])
    second = profile_from_trace(trace)
    assert not trace.builder.cold
    assert second.kernel_table.name == ["early", "late"]
    assert second.kernel_table.position == [0, 1]
    assert second.layer_table.totals.dram_read_bytes == [3.0 + 4.0]
    assert first.kernel_table.name == ["late"]  # returned: never changes
    _assert_same(second, oracle_profile(trace))


def test_a_kernel_whose_ancestor_never_arrives_keeps_the_builder_cold():
    """Every call derives from row 0 and equals the oracle."""
    trace = Trace(1)
    trace.add_rows([
        row_of("conv", 0, 100, Level.LAYER, 1, tags={"layer_index": 0}),
        _kernel("held", 2, 1, 5, 8),
        _kernel("orphan", 3, MISSING),
    ])
    builders = []
    for start in (30, 50, 70):
        _assert_same(profile_from_trace(trace), oracle_profile(trace))
        assert trace.builder.cold
        builders.append(trace.builder)
        trace.add_rows([_kernel(f"k{start}", start, 1, start, start + 5)])
    assert len(set(map(id, builders))) == len(builders)
    profile = profile_from_trace(trace)
    assert profile.kernel_table.name == ["held", "k30", "k50", "k70"]
    _assert_same(profile, oracle_profile(trace))


def test_a_duplicated_span_id_derives_from_row_zero():
    trace = Trace(1)
    trace.add_rows([row_of("a", 0, 10, Level.LAYER, 1),
                    _kernel("k", 2, 1, 1, 2)])
    profile_from_trace(trace)
    assert not trace.builder.cold
    trace.add_rows([row_of("b", 20, 30, Level.LAYER, 1,
                           tags={"layer_index": 3})])
    _assert_same(profile_from_trace(trace), oracle_profile(trace))
    assert trace.builder.cold


def test_touch_parents_and_a_table_swap_start_over():
    trace = Trace(1)
    trace.add_rows([row_of("a", 0, 10, Level.LAYER, 1),
                    _kernel("k", 2, None, 1, 2)])
    assert len(profile_from_trace(trace).kernel_table) == 0
    trace.table.set_parent_id(1, 1)
    trace.touch_parents()
    assert trace.builder is None
    assert profile_from_trace(trace).kernel_table.name == ["k"]
    trace.table = _copy(trace).table
    assert profile_from_trace(trace).kernel_table.name == ["k"]
    assert trace.builder.table is trace.table


# -- tag values: each rule of the cell kinds ----------------------------------

#: (span, tag, a value the builder rejects, the fault after the tag).
BAD_TAGS = [
    ("layer", "layer_index", "x", ": expected an integer or null, got 'x'"),
    ("layer", "layer_index", True, ": expected an integer or null, got True"),
    ("layer", "layer_index", 1.0, ": expected an integer or null, got 1.0"),
    ("layer", "layer_type", 7, ": expected a string, got 7"),
    ("layer", "shape", 5, ": expected a list, got 5"),
    ("layer", "shape", (1, "2"), "[1]: expected an integer, got '2'"),
    ("layer", "alloc_bytes", 1.5, ": expected an integer, got 1.5"),
    ("kernel", "metric.flop_count_sp", False,
     ": expected a number, got False"),
    ("kernel", "metric.achieved_occupancy", "0.5",
     ": expected a number, got '0.5'"),
    ("kernel", "grid", 5, ": expected a list, got 5"),
    ("kernel", "grid", "abc", ": expected a list, got 'abc'"),
    ("kernel", "block", [1, 1], ": expected 3 integers, got 2"),
    ("kernel", "block", (1, True, 1), "[1]: expected an integer, got True"),
]


def _tagged_capture(span: str, key: str, value) -> Trace:
    layer_tags = {"layer_index": 0, "layer_type": "Conv2D",
                  "shape": [1, 8], "alloc_bytes": 64}
    kernel_tags = {"grid": [2, 1, 1], "block": (32, 1, 1),
                   "metric.flop_count_sp": 5,
                   "metric.achieved_occupancy": 0.25}
    (layer_tags if span == "layer" else kernel_tags)[key] = value
    trace = Trace(1)
    trace.add_rows([
        row_of("conv", 0, 100, Level.LAYER, 1, tags=layer_tags),
        row_of("k", 10, 20, Level.GPU_KERNEL, 2, parent_id=1,
               kind=SpanKind.EXECUTION, tags=kernel_tags),
    ])
    return trace


@pytest.mark.parametrize("span,key,value,fault", BAD_TAGS)
def test_a_bad_tag_raises_naming_the_tag_and_the_span(span, key, value,
                                                      fault):
    trace = _tagged_capture(span, key, value)
    name, span_id = ("conv", 1) if span == "layer" else ("k", 2)
    expected = f"span '{name}' (span_id {span_id}): tag '{key}'{fault}"
    for _ in range(2):  # the builder kept no half-advanced state
        with pytest.raises(ValueError) as err:
            profile_from_trace(trace)
        assert str(err.value) == expected


def test_good_tags_pass_and_absent_tags_read_as_defaults():
    trace = _tagged_capture("layer", "layer_index", None)
    profile = profile_from_trace(trace)
    assert profile.layer_table.shape == [(1, 8)]
    assert profile.kernel_table.grid == [(2, 1, 1)]
    assert profile.kernel_table.flops == [5.0]
    assert profile.kernel_table.dram_read_bytes == [0.0]
    _assert_same(profile, oracle_profile(trace))
    trace = Trace(1)
    trace.add_rows([row_of("bare", 0, 10, Level.LAYER, 1),
                    _kernel("k", 2, 1, 1, 2)])
    profile = profile_from_trace(trace)
    assert (profile.layer_table.layer_type, profile.layer_table.shape,
            profile.layer_table.alloc_bytes) == (["unknown"], [()], [0])
    assert profile.kernel_table.grid == [(1, 1, 1)]


def test_a_bad_kernel_after_a_good_prefix_leaves_no_half_state():
    """A fault in a later batch raises on every call, and the profile
    returned before it is unchanged."""
    trace = _tagged_capture("kernel", "grid", [2, 1, 1])
    before = profile_from_trace(trace)
    trace.add_rows([row_of("k2", 30, 40, Level.GPU_KERNEL, 3, parent_id=1,
                           kind=SpanKind.EXECUTION, tags={"grid": 5})])
    for _ in range(2):
        with pytest.raises(ValueError, match="'k2' .*'grid'"):
            profile_from_trace(trace)
    assert before.kernel_table.name == ["k"]

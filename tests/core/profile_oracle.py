"""The cold trace-to-profile derivation that ``ProfileBuilder`` replaced.

``repro.core.pipeline.profile_from_trace`` advances a builder over the
rows appended since its previous call.  This module keeps the derivation
it replaced: every call reads the whole trace, sorts its layers, walks
each kernel's ancestor chain and builds one ``LayerProfile`` per layer.
Only the last step changed form: the layers' data now goes into a
``LayerTable`` before the layer objects are built from it.  ``test_profile_builder.py`` and
``tests/insights/test_live.py`` assert that the two agree after every
batch of rows, and ``benchmarks/bench_live_refresh.py`` times a live
refresh against this one.  Imported by the tests as a plain
``profile_oracle`` module.
"""

from __future__ import annotations

from itertools import accumulate

from repro.core.pipeline import (LAYER_FIELDS, KernelTable, LayerTable,
                                 ModelProfile)
from repro.tracing.span import Level, SpanKind
from repro.tracing.table import _KIND_CODE, NONE_ID
from repro.tracing.trace import Trace


def oracle_profile(trace: Trace) -> ModelProfile:
    """A single-run profile view of ``trace``, derived from row 0."""
    layers, kernels = layers_and_kernels(trace)
    predict = trace.first_named("predict")
    if predict is not None:
        model_latency_ms = predict.duration_ms
    else:
        lo, hi = trace.span_extent_ns()
        model_latency_ms = (hi - lo) / 1e6
    meta = trace.metadata
    profile = ModelProfile(
        model_name=str(meta.get("model", f"trace-{trace.trace_id}")),
        system=str(meta.get("system", "unknown")),
        framework=str(meta.get("framework", "unknown")),
        batch=int(meta.get("batch", 1)),
        model_latency_ms=model_latency_ms,
        n_runs=1,
        metadata={"source": "trace", "trace_id": trace.trace_id},
        layer_table=LayerTable(
            [list(column) for column in zip(*layers)]
            or [[] for _ in LAYER_FIELDS], kernels),
    )
    profile.layers  # the derivation built one object per layer
    return profile


def layers_and_kernels(trace: Trace) -> tuple[list[tuple], KernelTable]:
    """A trace's layers, as ``(index, name, layer_type, shape, latency_ms,
    alloc_bytes)`` tuples ordered by index, and its kernel table."""
    table = trace.table
    index = trace.index
    starts = table.start_ns
    ends = table.end_ns
    span_ids = table.span_id
    parents = table.parent_id
    level_rows = index.level_rows()

    layer_rows = level_rows.get(Level.LAYER, [])
    tagged_rows = sorted(
        zip(*table.tag_columns(
            layer_rows,
            ("layer_index", "layer_type", "shape", "alloc_bytes"),
            (None, "unknown", (), 0),
        ), layer_rows),
        key=lambda layer: layer[0] or 0,
    )
    # A layer's index is its tag, or else its position.
    indices = [int(slot if layer[0] is None else layer[0])
               for slot, layer in enumerate(tagged_rows)]
    # Kernels hang off their layer span directly, or — when the library
    # level was captured — via an intermediate cuDNN/cuBLAS API span, so
    # resolve through the ancestor chain up to the enclosing layer (its
    # position in ``tagged_rows``), once per parent span.
    row_by_id = index.row_by_id()
    layer_of: dict[int, int | None] = {NONE_ID: None}
    for slot, layer in enumerate(tagged_rows):
        layer_of[span_ids[layer[-1]]] = slot

    def enclosing_layer(parent_id: int) -> int | None:
        chain = []
        while parent_id not in layer_of and parent_id not in chain:
            chain.append(parent_id)
            parent_row = row_by_id.get(parent_id)
            parent_id = NONE_ID if parent_row is None else parents[parent_row]
        slot = layer_of.get(parent_id)  # None on a parent cycle
        for seen in chain:
            layer_of[seen] = slot
        return slot

    execution_code = _KIND_CODE[SpanKind.EXECUTION]
    kinds = table.kind
    owned: list[list[int]] = [[] for _ in tagged_rows]
    for row in level_rows.get(Level.GPU_KERNEL, []):
        if kinds[row] != execution_code:
            continue
        parent_id = parents[row]
        slot = (layer_of[parent_id] if parent_id in layer_of
                else enclosing_layer(parent_id))
        if slot is not None:  # else a kernel outside any layer span
            owned[slot].append(row)
    rows = [row for own in owned for row in own]
    flops, reads, writes, occupancy, grid, block = table.tag_columns(
        rows,
        ("metric.flop_count_sp", "metric.dram_read_bytes",
         "metric.dram_write_bytes", "metric.achieved_occupancy",
         "grid", "block"),
        (0.0, 0.0, 0.0, 0.0, (1, 1, 1), (1, 1, 1)),
    )
    kernels = KernelTable((
        list(map(table.name_of, rows)),
        [i for i, own in zip(indices, owned) for _ in own],
        [position for own in owned for position in range(len(own))],
        [(ends[row] - starts[row]) / 1e6 for row in rows],
        list(map(float, flops)),
        list(map(float, reads)),
        list(map(float, writes)),
        list(map(float, occupancy)),
        list(map(tuple, grid)),
        list(map(tuple, block)),
    ), [0, *accumulate(map(len, owned))])
    return [
        (index, table.name_of(row), str(layer_type), tuple(shape),
         (ends[row] - starts[row]) / 1e6, int(alloc_bytes))
        for index, (_, layer_type, shape, alloc_bytes, row)
        in zip(indices, tagged_rows)
    ], kernels

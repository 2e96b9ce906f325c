"""LiveMonitor: insights over an in-flight capture via the stream cursor."""

from __future__ import annotations

import importlib.util
import itertools
import random
import threading
from pathlib import Path

import pytest

from factories import build_basic_profile, make_matching_trace, span_rows

from repro.insights import LiveMonitor
from repro.tracing import Level, Span, SpanKind, TracingServer


def _capture_spans():
    """A realistic capture (model + layers + kernel pairs) as Span list."""
    profile = build_basic_profile()
    trace = make_matching_trace(profile, gap_us=100.0)
    return [
        Span(v.name, v.start_ns, v.end_ns, v.level, span_id=v.span_id,
             kind=v.kind, correlation_id=v.correlation_id,
             tags=dict(v.iter_tags()))
        for v in trace.spans
    ]


def _begin(server):
    return server.begin_trace(
        model="synthetic", system="Tesla_V100",
        framework="tensorflow_like", batch=8,
    )


def test_monitor_refreshes_per_batch_and_finishes():
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid, correlate=True)
    spans = _capture_spans()
    third = len(spans) // 3

    server.publish_many(span_rows(spans[:third]))
    first = monitor.poll()
    assert first is not None and not first.final
    assert first.new_rows == third
    assert first.refreshed_rules  # everything ran on the first refresh

    # Quiet capture: no rows -> no update, no rule evaluations.
    evaluations = dict(monitor.engine.evaluations)
    assert monitor.poll() is None
    assert monitor.engine.evaluations == evaluations

    server.publish_many(span_rows(spans[third:]))
    server.end_trace(tid)
    second = monitor.poll()
    assert second is not None and second.final
    assert second.n_spans == len(spans)
    assert monitor.done
    assert monitor.poll() is None

    # The completed capture's report carries real findings: the 100 us
    # inter-kernel gaps make the idle-bubble rule fire.
    assert any(i.rule == "gpu-idle-bubbles" for i in second.report)


def test_monitor_correlates_incrementally():
    """With correlate=True, kernels arriving unparented get resolved to
    their layers on each refresh, matching the profile view."""
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid, correlate=True)
    spans = _capture_spans()
    # Split on a span boundary such that each increment carries whole
    # layers (parents never arrive after their children's increment).
    layer_ids = [s.span_id for s in spans if s.level is Level.LAYER]
    cut = next(
        i for i, s in enumerate(spans) if s.span_id == layer_ids[1]
    ) + 1
    server.publish_many(span_rows(spans[:cut]))
    update = monitor.poll()
    assert update is not None
    server.publish_many(span_rows(spans[cut:]))
    server.end_trace(tid)
    final = monitor.poll()
    assert final is not None and final.final
    trace = monitor.trace
    # Every execution span ends up parented under some layer span.
    layer_set = set(layer_ids)
    executions = [
        s for s in trace.spans if s.kind is SpanKind.EXECUTION
    ]
    assert executions
    assert all(s.parent_id in layer_set for s in executions)


def test_monitor_parents_kernels_published_before_their_layer():
    """A layer that lands one increment after its kernels still becomes
    their parent: each refresh re-correlates the whole capture."""
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid, correlate=True)
    kernels = []
    for i in range(3):
        start = 100 + 500 * i
        kernels.append(
            Span("k", start, start + 50, Level.GPU_KERNEL, span_id=20 + 2 * i,
                 kind=SpanKind.LAUNCH, correlation_id=10 + i)
        )
        kernels.append(
            Span("k", start + 25, start + 400, Level.GPU_KERNEL,
                 span_id=21 + 2 * i, kind=SpanKind.EXECUTION,
                 correlation_id=10 + i)
        )
    server.publish_many(span_rows(kernels))
    assert monitor.poll() is not None
    server.publish(Span("conv", 0, 2_000, Level.LAYER, span_id=2,
                        tags={"layer_index": 0, "layer_type": "Conv2D"}))
    server.end_trace(tid)
    final = monitor.poll()
    assert final is not None and final.final
    executions = [
        s for s in monitor.trace.spans if s.kind is SpanKind.EXECUTION
    ]
    assert len(executions) == 3
    assert all(s.parent_id == 2 for s in executions)


def test_monitor_blocking_updates_with_producer_thread():
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid)
    spans = _capture_spans()

    def produce():
        half = len(spans) // 2
        server.publish_many(span_rows(spans[:half]))
        server.publish_many(span_rows(spans[half:]))
        server.end_trace(tid)

    producer = threading.Thread(target=produce)
    producer.start()
    updates = list(monitor.updates())
    producer.join()
    assert updates  # at least one refresh observed
    assert updates[-1].final
    assert updates[-1].n_spans == len(spans)
    assert sum(u.new_rows for u in updates) == len(spans)


def test_monitor_empty_closed_trace_yields_nothing():
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid)
    server.end_trace(tid)
    assert monitor.poll() is None
    assert monitor.done


# -- live equals cold, at every update -----------------------------------------

_ORACLE = Path(__file__).parents[1] / "core" / "profile_oracle.py"
_spec = importlib.util.spec_from_file_location("profile_oracle", _ORACLE)
profile_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_oracle)

#: Three pool models, as the live benchmark publishes them:
#: (model, batch, system, framework).
_POOL = ((53, 2, "Tesla_V100", "tensorflow_like"),
         (15, 1, "Quadro_RTX", "mxnet_like"),
         (27, 4, "Tesla_P100", "tensorflow_like"))


def _templates(levels) -> list[list[dict]]:
    """Each pool model's evaluation as ``publish_rows`` mappings."""
    from repro.core import ProfilingConfig, XSPSession
    from repro.models import get_model

    templates = []
    for model, batch, system, framework in _POOL:
        run = XSPSession(system, framework).profile(
            get_model(model).graph, batch,
            ProfilingConfig(levels=levels, metrics=()))
        table = run.trace.table
        templates.append([
            dict(name=table.name_of(row), start_ns=table.start_ns[row],
                 end_ns=table.end_ns[row], level=table.level[row],
                 span_id=table.span_id[row],
                 parent_id=table.parent_id_of(row), kind=table.kind[row],
                 correlation_id=table.correlation_id_of(row),
                 tags=table.peek_tags(row))
            for row in range(len(table))
        ])
    return templates


def _remapped(template: list[dict], ids, offset_ns: int) -> list[dict]:
    """One republication: fresh span, parent and correlation ids."""
    span_ids = {row["span_id"]: next(ids) for row in template}
    correlations = {row["correlation_id"]: next(ids) for row in template
                    if row["correlation_id"] is not None}
    return [
        {**row, "start_ns": row["start_ns"] + offset_ns,
         "end_ns": row["end_ns"] + offset_ns,
         "span_id": span_ids[row["span_id"]],
         "parent_id": span_ids.get(row["parent_id"]),
         "correlation_id": correlations.get(row["correlation_id"])}
        for row in template
    ]


def _prefix(trace, n: int):
    """A fresh trace holding the first ``n`` rows of ``trace``."""
    from repro.tracing.trace import Trace

    table = trace.table
    prefix = Trace(trace.trace_id, metadata=dict(trace.metadata))
    prefix.add_rows([
        (table.name_of(row), table.start_ns[row], table.end_ns[row],
         table.level[row], table.kind[row], table.span_id[row],
         table.parent_id[row], table.correlation_id[row],
         tuple(table.peek_tags(row)), tuple(table.peek_tags(row).values()))
        for row in range(n)
    ])
    return prefix


@pytest.mark.parametrize("library_level", [False, True])
def test_every_live_update_equals_a_cold_advise(library_level):
    """A multi-model capture with full metadata and remapped ids, cut into
    random chunks: every update's report equals advising the oracle
    profile of the rows it covers."""
    from repro.core import MLG, MLLibG
    from repro.insights import advise

    rng = random.Random(11 + library_level)
    templates = _templates(MLLibG if library_level else MLG)
    ids = itertools.count(1 << 40)
    rows, offset = [], 0
    for evaluation in (0, 1, 2, 0):
        template = _remapped(templates[evaluation], ids, offset)
        rows += template
        offset = max(row["end_ns"] for row in template) + 1_000
    server = TracingServer()
    model, batch, system, framework = _POOL[0]
    tid = server.begin_trace(model=model, system=system,
                             framework=framework, batch=batch)
    monitor = LiveMonitor(server, tid)
    updates, at = [], 0
    while at < len(rows):
        chunk = rows[at:at + rng.randint(1, 400)]
        at += len(chunk)
        server.publish_rows(tid, chunk)
        if at == len(rows):
            server.end_trace(tid)
        update = monitor.poll(timeout=0)
        assert update is not None
        updates.append(update)
    assert updates[-1].final and updates[-1].n_spans == len(rows)
    assert len(updates) > 5
    trace = monitor.trace
    for update in updates:
        prefix = _prefix(trace, update.n_spans)
        cold = advise(profile_oracle.oracle_profile(prefix), trace=prefix)
        assert update.report.to_dict() == cold.to_dict()

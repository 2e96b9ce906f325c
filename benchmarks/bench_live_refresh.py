"""Live refresh: a ``LiveMonitor`` following a growing multi-model capture.

An application capture of four models (two ResNet-152 variants and two
Mask R-CNN segmenters, under ``tensorflow_like`` at batch 1, without
metrics) is cut to its first ``ROWS`` rows and published in ``CHUNK_ROWS``-row chunks, as
the live benchmark publishes its captures.  After each chunk the
monitor refreshes: its trace's ``ProfileBuilder`` advances over the new
rows and the incremental engine re-runs the rules whose ingredients
changed.

Asserted: one ``ProfileBuilder`` serves the whole capture and never goes
cold (so every refresh takes the incremental path), the final live report
equals a cold ``advise`` of the whole capture, and the summed refresh time is at least ``MIN_SPEEDUP``x lower
than refreshing the way every refresh used to: the cold derivation kept
in ``tests/core/profile_oracle.py`` plus a fresh ``InsightEngine`` per
chunk.
"""

from __future__ import annotations

import gc
import importlib.util
import time
from pathlib import Path

import pytest

from repro.core.pipeline import profile_from_trace
from repro.insights import InsightEngine, LiveMonitor, advise
from repro.insights.engine import InsightContext
from repro.tracing import TracingServer

ROWS = 8000
CHUNK_ROWS = 160
MIN_SPEEDUP = 3.0
METADATA = dict(model="live", system="Tesla_V100",
                framework="tensorflow_like", batch=1)

_ORACLE = Path(__file__).parents[1] / "tests" / "core" / "profile_oracle.py"
_spec = importlib.util.spec_from_file_location("profile_oracle", _ORACLE)
profile_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_oracle)


@pytest.fixture(scope="module")
def rows() -> list[tuple]:
    """The capture's first ``ROWS`` rows as ``append_rows`` tuples."""
    from repro.core import ProfilingConfig, XSPSession
    from repro.models import get_model

    trace, _ = XSPSession("Tesla_V100", "tensorflow_like").profile_application(
        [(get_model(m).graph, 1) for m in (4, 48, 9, 49)],
        config=ProfilingConfig(metrics=()),
    )
    table = trace.table
    assert len(table) >= ROWS
    return [
        (table.name_of(row), table.start_ns[row], table.end_ns[row],
         table.level[row], table.kind[row], table.span_id[row],
         table.parent_id[row], table.correlation_id[row],
         tuple(table.peek_tags(row)), tuple(table.peek_tags(row).values()))
        for row in range(ROWS)
    ]


def _chunks(rows):
    return [rows[i:i + CHUNK_ROWS] for i in range(0, len(rows), CHUNK_ROWS)]


def _live(rows) -> tuple[float, LiveMonitor]:
    """Publish chunk by chunk; the summed time of the monitor's polls.
    One builder, never cold, serves every poll."""
    server = TracingServer()
    tid = server.begin_trace(**METADATA)
    monitor = LiveMonitor(server, tid)
    spent, builder = 0.0, None
    for chunk in _chunks(rows):
        server.publish_many(chunk)
        start = time.perf_counter()
        assert monitor.poll(timeout=0) is not None
        spent += time.perf_counter() - start
        builder = builder or monitor.trace.builder
        assert monitor.trace.builder is builder and not builder.cold
    server.end_trace(tid)
    monitor.poll(timeout=0)
    return spent, monitor


def _oracle(rows) -> tuple[float, object]:
    """The same chunks, each refreshed by the cold derivation and a
    fresh engine."""
    server = TracingServer()
    tid = server.begin_trace(**METADATA)
    trace = server.stream(tid).trace
    spent, report = 0.0, None
    for chunk in _chunks(rows):
        server.publish_many(chunk)
        start = time.perf_counter()
        context = InsightContext.build(
            profile_oracle.oracle_profile(trace), trace=trace)
        report = InsightEngine().analyze(context)
        spent += time.perf_counter() - start
    return spent, report


def test_live_refresh_8k_rows(benchmark, rows):
    _, monitor = benchmark.pedantic(_live, args=(rows,), rounds=3,
                                    iterations=1)
    trace = monitor.trace
    cold = advise(profile_from_trace(trace), trace=trace)
    assert monitor.report.to_dict() == cold.to_dict()


def test_live_refresh_beats_the_cold_oracle(rows):
    best_live = best_oracle = float("inf")
    for _ in range(3):
        gc.collect()
        live_s, monitor = _live(rows)
        gc.collect()
        oracle_s, report = _oracle(rows)
        best_live, best_oracle = min(best_live, live_s), min(best_oracle, oracle_s)
    assert monitor.report.to_dict() == report.to_dict()
    trace = monitor.trace
    assert report.to_dict() == advise(profile_from_trace(trace),
                                      trace=trace).to_dict()
    speedup = best_oracle / best_live
    assert speedup >= MIN_SPEEDUP, (
        f"a live refresh is only {speedup:.2f}x faster than the cold oracle "
        f"({best_live * 1e3:.0f} ms vs {best_oracle * 1e3:.0f} ms over "
        f"{len(_chunks(rows))} chunks)"
    )

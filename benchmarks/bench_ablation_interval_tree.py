"""Parent reconstruction on a realistic 50k-span trace shape.

Times ``reconstruct_parents`` (one sweep with per-level active-parent
stacks) on a synthetic capture: one model span, sequential layers with a
few nested sub-layers, and a dominant population of kernel-launch spans.
That the sweep assigns exactly what per-orphan interval-tree queries
would is fuzzed in tier-1 (``tests/tracing/test_sweepline.py``).
``make_synthetic_trace`` is shared with ``bench_insights_engine.py``.
"""

from __future__ import annotations

import random

from repro.tracing import Level, Span, SpanKind, Trace
from repro.tracing.correlation import reconstruct_parents

N_SPANS = 50_000


def make_synthetic_trace(n_spans: int = N_SPANS, seed: int = 3) -> Trace:
    """An across-stack trace shaped like a real capture: one model span,
    sequential layers (a few of them nested sub-layers), cuDNN-style
    library spans, and a dominant population of kernel-launch spans."""
    rng = random.Random(seed)
    t = Trace(trace_id=1)
    sid = 1
    t.add(Span("predict", 0, 1 << 60, Level.MODEL, span_id=sid))
    sid += 1
    n_layers = max(1, n_spans // 12)
    cursor = 0
    layers: list[Span] = []
    for _ in range(n_layers):
        width = rng.randint(20_000, 400_000)
        layer = Span(f"layer{sid}", cursor, cursor + width, Level.LAYER,
                     span_id=sid)
        sid += 1
        t.add(layer)
        layers.append(layer)
        if rng.random() < 0.1 and width > 4_000:
            lo = cursor + width // 4
            hi = cursor + (3 * width) // 4
            t.add(Span(f"sublayer{sid}", lo, hi, Level.LAYER, span_id=sid,
                       parent_id=layer.span_id))
            sid += 1
        cursor += width + rng.randint(0, 1_000)
    while sid <= n_spans:
        layer = rng.choice(layers)
        if layer.duration_ns < 4:
            continue
        a = rng.randint(layer.start_ns, layer.end_ns - 2)
        b = rng.randint(a + 1, layer.end_ns)
        t.add(Span(f"launch{sid}", a, b, Level.GPU_KERNEL, span_id=sid,
                   kind=SpanKind.LAUNCH, correlation_id=sid))
        sid += 1
    return t


def _fresh_trace_setup():
    """Each timed round reconstructs a fresh trace (assignment mutates it)."""
    return (make_synthetic_trace(),), {}


def test_sweepline_reconstruction_50k(benchmark):
    """The hot path: one sweep, per-level active-parent stacks."""
    result = benchmark.pedantic(
        lambda tr: reconstruct_parents(tr, strict=False),
        setup=_fresh_trace_setup, rounds=3, iterations=1,
    )
    assert len(result.assigned) > N_SPANS * 0.9

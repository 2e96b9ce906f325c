"""End-to-end parallel-events ambiguity -> serialized re-run.

The paper: "It is possible that there are parallel events where it may be
ambiguous to determine a span's parent. In those cases, XSP requires
another profiling run where the parallel events are serialized."

This test builds a framework whose executor runs two independent branches
on concurrent executor threads (overlapping layer intervals, kernels on
two streams).  Profiled asynchronously, kernel parentage is ambiguous;
XSPSession then automatically re-runs with CUDA_LAUNCH_BLOCKING=1, where
the branches serialize and every kernel resolves to a unique layer.
"""

from __future__ import annotations

import pytest

from repro.core import MLG, ProfilingConfig, XSPSession
from repro.core.pipeline import profile_from_trace
from repro.core.session import FRAMEWORKS
from repro.frameworks import Graph
from repro.frameworks.base import PredictionResult
from repro.frameworks.profiler_format import LayerRecord
from repro.frameworks.tensorflow_like import TFSim
from repro.sim import eigen
from repro.tracing import SpanKind


class InterOpParallelTFSim(TFSim):
    """TFSim with a 2-thread inter-op executor for branch layers.

    Only models shaped as Input -> [branchA, branchB] -> Concat are
    supported; the two branches execute with overlapping host intervals
    (each on its own CUDA stream) unless CUDA_LAUNCH_BLOCKING serializes
    them.
    """

    def predict(self, model, batch, options=None):
        rt = self.runtime
        clock = rt.clock
        profiling = self._profiling_active(options)
        shapes = model.shapes(batch)
        start_ns = clock.now()
        serialized = rt.launch_blocking

        branches = [l for l in model.plan if l.op == "Relu"]
        assert len(branches) == 2, "test model must have 2 branch layers"

        launches = []
        bounds = []  # serialized per-layer (start, end)
        for thread, layer in enumerate(branches):
            layer_start = clock.now()
            out = shapes[layer.source]
            launches.append(rt.launch_kernel(
                eigen.max_kernel(out.elems),
                stream_id=thread + 1,
                layer_index=layer.index,
            ))
            if serialized:
                rt.stream_synchronize(thread + 1)
            clock.advance_us(5.0)
            bounds.append((layer_start, clock.now()))
        for thread in range(len(branches)):
            rt.stream_synchronize(thread + 1)

        la, lb = launches
        if serialized:
            # Sequential executor: clean, disjoint layer windows.
            windows = bounds
        else:
            # Two overlapping executor threads: thread A's window covers
            # both launches; thread B's starts mid-way and runs longer, so
            # the windows partially overlap (neither nested) and thread
            # B's launch falls inside both — genuinely ambiguous.
            windows = [
                (la.api_start_ns - 2_000, lb.api_end_ns + 2_000),
                (la.api_end_ns + 500, lb.api_end_ns + 6_000),
            ]
        records = []
        for layer, (w_start, w_end) in zip(branches, windows):
            out = shapes[layer.source]
            records.append(LayerRecord(
                index=layer.index, name=layer.name, layer_type="Relu",
                shape=out.dims, start_ns=w_start, end_ns=w_end,
                alloc_bytes=out.nbytes,
            ))
        clock.advance_us(10.0)
        return PredictionResult(
            batch=batch, start_ns=start_ns, end_ns=clock.now(),
            output_shapes={},
            native_profile=self.serialize_profile(records) if profiling
            else None,
        )


@pytest.fixture()
def branch_graph():
    g = Graph("two_branches")
    g.add_op("input", "Input", shape=(8, 16, 16))
    g.add_op("branch_a", "Relu", ["input"])
    g.add_op("branch_b", "Relu", ["input"])
    g.add_op("merge", "Concat", ["branch_a", "branch_b"])
    g.validate()
    return g


@pytest.fixture()
def parallel_session(branch_graph):
    FRAMEWORKS["interop_parallel"] = InterOpParallelTFSim
    yield XSPSession("Tesla_V100", "interop_parallel")
    del FRAMEWORKS["interop_parallel"]


def test_async_run_is_ambiguous_then_serialized(parallel_session, branch_graph):
    run = parallel_session.profile(
        branch_graph, 4, ProfilingConfig(levels=MLG, metrics=())
    )
    # The session detected ambiguity and transparently re-ran serialized.
    assert run.was_serialized_retry
    assert run.config.serialized
    assert not run.correlation.needs_serialized_rerun
    # After serialization every kernel resolves to exactly one layer.
    profile = profile_from_trace(run.trace)
    assert len(profile.kernels) == run.n_kernels
    assert sorted(len(l.kernels) for l in profile.layers if l.kernels) == [1, 1]
    names = {run.trace.by_id()[s.parent_id].name for s in run.trace.spans
             if s.kind is SpanKind.LAUNCH}
    assert names == {"branch_a/Relu", "branch_b/Relu"}


def test_ambiguity_visible_without_auto_serialize(parallel_session,
                                                  branch_graph):
    run = parallel_session.profile(
        branch_graph, 4,
        ProfilingConfig(levels=MLG, metrics=(), auto_serialize=False),
    )
    assert run.correlation.needs_serialized_rerun
    assert not run.was_serialized_retry

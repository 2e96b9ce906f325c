"""CUPTI memcpy activity tests."""

from repro.sim import CudaRuntime, Cupti, VirtualClock, get_system


def test_memcpy_activities_captured():
    rt = CudaRuntime(get_system("Tesla_V100"), VirtualClock())
    cupti = Cupti(rt)
    cupti.enable_activities()
    rt.memcpy(1_000_000, kind="h2d")
    rt.memcpy(2_000, kind="d2h")
    act = cupti.activities
    assert act.kind == ["memcpy", "memcpy"]
    assert act.name == ["[CUDA memcpy H2D]", "[CUDA memcpy D2H]"]
    assert act.metric_names == [("bytes",), ("bytes",)]
    assert act.metric_values == [1_000_000.0, 2_000.0]
    assert act.end_ns[0] > act.start_ns[0]


def test_memcpy_not_captured_when_disabled():
    rt = CudaRuntime(get_system("Tesla_V100"), VirtualClock())
    cupti = Cupti(rt)
    cupti.enable_callbacks()  # callbacks only, no activities
    rt.memcpy(1_000)
    assert len(cupti.activities) == 0


def test_memcpy_spans_in_trace(v100_session, cnn_graph):
    from repro.core import ProfilingConfig
    from repro.tracing import Level, SpanKind

    run = v100_session.profile(cnn_graph, 2, ProfilingConfig(metrics=()))
    copies = [s for s in run.trace.at_level(Level.GPU_KERNEL)
              if s.tags.get("activity_kind") == "memcpy"]
    assert copies, "h2d/d2h copies should appear as GPU-level spans"
    assert all(s.kind is SpanKind.INTERNAL for s in copies)
    # The input copy belongs to the Data layer.
    by_id = run.trace.by_id()
    h2d = next(s for s in copies if "H2D" in s.name)
    assert by_id[h2d.parent_id].tags.get("layer_type") == "Data"

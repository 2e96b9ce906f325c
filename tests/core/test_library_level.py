"""Library-level (Sec. III-E extension) tests."""

import pytest

from repro.analysis.ext_library import library_call_table
from repro.core import MLLibG, ProfilingConfig, XSPSession
from repro.core.library_level import LibraryTracer, api_name_for
from repro.tracing import Level, SpanKind, TracingServer


@pytest.fixture(scope="module")
def lib_run(cnn_graph):
    session = XSPSession("Tesla_V100", "tensorflow_like")
    return session.profile(cnn_graph, 8,
                           ProfilingConfig(levels=MLLibG, metrics=()))


def test_library_spans_present(lib_run):
    spans = lib_run.trace.at_level(Level.LIBRARY)
    assert spans
    names = {s.name for s in spans}
    assert "cudnnConvolutionForward" in names
    assert "Eigen::TensorDevice::run" in names
    assert "cublasSgemm" in names


def _launches(run):
    return [s for s in run.trace.at_level(Level.GPU_KERNEL)
            if s.kind is SpanKind.LAUNCH]


def test_four_level_hierarchy(lib_run):
    """launch -> LIBRARY -> LAYER -> MODEL via interval containment."""
    by_id = lib_run.trace.by_id()
    launches = _launches(lib_run)
    assert len(launches) == lib_run.n_kernels
    for launch in launches:
        library = by_id[launch.parent_id]
        assert library.level == Level.LIBRARY
        layer = by_id[library.parent_id]
        assert layer.level == Level.LAYER
        model = by_id[layer.parent_id]
        assert model.level == Level.MODEL


def test_library_span_covers_its_kernels(lib_run):
    by_id = lib_run.trace.by_id()
    for launch in _launches(lib_run):
        library = by_id[launch.parent_id]
        assert library.contains(launch)


def test_conv_call_groups_helper_kernels(lib_run):
    """The first conv's ShuffleTensor/OffsetComp/main kernels belong to a
    single cudnnConvolutionForward call."""
    spans = lib_run.trace.at_level(Level.LIBRARY)
    conv_calls = [s for s in spans if s.name == "cudnnConvolutionForward"]
    assert any(s.tags["n_kernels"] >= 3 for s in conv_calls)


def test_library_call_table(lib_run):
    table = library_call_table(lib_run)
    assert table.rows
    total = sum(r["latency_pct"] for r in table)
    assert total == pytest.approx(100.0)
    assert sum(r["kernels"] for r in table) == lib_run.n_kernels


def test_library_table_requires_library_level(v100_session, cnn_graph):
    run = v100_session.profile(cnn_graph, 2, ProfilingConfig(metrics=()))
    with pytest.raises(ValueError, match="MLLibG"):
        library_call_table(run)


def test_mlg_run_has_no_library_spans(v100_session, cnn_graph):
    run = v100_session.profile(cnn_graph, 2, ProfilingConfig(metrics=()))
    assert run.trace.at_level(Level.LIBRARY) == []


def test_api_name_mapping():
    from repro.sim.cuda import KernelLaunchRecord
    from repro.sim.kernels import KernelClass, KernelSpec

    def record(name, klass, library):
        spec = KernelSpec(name, klass, 1.0, 1.0, 1.0, blocks=1,
                          tags={"library": library})
        return KernelLaunchRecord(1, spec, 0, 0, 1, 2, 3, 3)

    assert api_name_for(record("k", KernelClass.POOL, "cudnn")) == \
        "cudnnPoolingForward"
    assert api_name_for(record("k", KernelClass.GEMM, "cublas")) == \
        "cublasSgemm"
    assert api_name_for(
        record("Eigen::x", KernelClass.ELEMENTWISE_EIGEN, "eigen")
    ) == "Eigen::TensorDevice::run"
    assert api_name_for(
        record("k", KernelClass.MEMORY_MOVEMENT, "")
    ) == "launchGenericOp"


def test_tracer_groups_by_layer_and_api():
    from repro.sim.cuda import KernelLaunchRecord
    from repro.sim.kernels import KernelClass, KernelSpec

    def record(cid, klass, library, layer, t0):
        spec = KernelSpec(f"k{cid}", klass, 1.0, 1.0, 1.0, blocks=1,
                          tags={"library": library})
        return KernelLaunchRecord(cid, spec, 0, t0, t0 + 5, t0 + 10,
                                  t0 + 20, t0 + 20, layer)

    class Runtime:
        """Stands in for CudaRuntime's launch log."""

        log: list = []

        def launch_reader(self):
            return lambda: self.log

    server = TracingServer()
    tid = server.begin_trace()
    runtime = Runtime()
    tracer = LibraryTracer(server, runtime)
    runtime.log = [
        record(1, KernelClass.CONV_PRECOMP_GEMM, "cudnn", 1, 0),
        record(2, KernelClass.CONV_PRECOMP_GEMM, "cudnn", 1, 10),
        record(3, KernelClass.ELEMENTWISE_EIGEN, "eigen", 2, 30),
        record(4, KernelClass.CONV_PRECOMP_GEMM, "cudnn", 3, 50),
        # The same API in the next layer: a call of its own.
        record(5, KernelClass.CONV_PRECOMP_GEMM, "cudnn", 4, 60),
    ]
    tracer.convert()
    spans = server.end_trace(tid).spans
    assert [s.tags["n_kernels"] for s in spans] == [2, 1, 1, 1]
    assert [s.tags["layer_index"] for s in spans] == [1, 2, 3, 4]
    assert [(s.start_ns, s.end_ns) for s in spans] == [
        (0, 15), (30, 35), (50, 55), (60, 65)
    ]
    assert spans[0].name == spans[2].name == "cudnnConvolutionForward"

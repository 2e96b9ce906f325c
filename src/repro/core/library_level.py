"""Library-level profiling — the paper's Sec. III-E extension.

"One can also add a ML library profiling level between the layer- and GPU
kernel-level to measure the cuDNN API calls."  This module does exactly
that: it synthesizes LIBRARY-level spans from the runtime's launch log
(read at conversion, as CUPTI reads it at flush), grouping consecutive
kernels of one library invocation within a layer into a single API-call
span (``cudnnConvolutionForward``,
``cublasSgemm``, ...).  The spans slot between the layer and GPU-kernel
levels, and the standard interval-containment reconstruction then parents
kernels on API calls and API calls on layers — no changes to the
framework or to the correlation machinery, demonstrating the design's
extensibility.
"""

from __future__ import annotations

from repro.sim.cuda import CudaRuntime, KernelLaunchRecord
from repro.sim.kernels import KernelClass
from repro.tracing.server import TracingServer
from repro.tracing.span import Level, SpanKind, new_span_id
from repro.tracing.table import _KIND_CODE, NONE_ID
from repro.tracing.tracer import Tracer

#: Library tag (KernelSpec.tags["library"]) + kernel class -> API name.
_API_NAMES: dict[tuple[str, KernelClass], str] = {
    ("cudnn", KernelClass.CONV_IMPLICIT_GEMM): "cudnnConvolutionForward",
    ("cudnn", KernelClass.CONV_PRECOMP_GEMM): "cudnnConvolutionForward",
    ("cudnn", KernelClass.CONV_CGEMM): "cudnnConvolutionForward",
    ("cudnn", KernelClass.CONV_DEPTHWISE): "cudnnConvolutionForward",
    ("cudnn", KernelClass.MEMORY_MOVEMENT): "cudnnConvolutionForward",
    ("cudnn", KernelClass.POOL): "cudnnPoolingForward",
    ("cudnn", KernelClass.REDUCTION): "cudnnSoftmaxForward",
    ("cublas", KernelClass.GEMM): "cublasSgemm",
}

_KEYS = ("library", "n_kernels", "layer_index", "tracer")


def api_name_for(record: KernelLaunchRecord) -> str:
    """The library API call a kernel launch belongs to."""
    library = str(record.spec.tags.get("library", ""))
    klass = record.spec.klass
    if (library, klass) in _API_NAMES:
        return _API_NAMES[(library, klass)]
    if library == "eigen" or record.spec.name.startswith("Eigen::"):
        return "Eigen::TensorDevice::run"
    if library in ("mshadow", "mxnet") or record.spec.name.startswith("mxnet::"):
        return "mxnet::op::Kernel::Launch"
    if library == "tensorflow":
        return "tensorflow::LaunchDepthwiseConvOp"
    return "launchGenericOp"


class LibraryTracer(Tracer):
    """Tracer folding the runtime's kernel launches (it reads the launch
    log, as CUPTI does) into library-API calls, published as spans."""

    def __init__(self, server: TracingServer, runtime: CudaRuntime) -> None:
        super().__init__("library_tracer", Level.LIBRARY, server)
        self._read_launches = runtime.launch_reader()

    def convert(self) -> None:
        """Publish one span per library call launched since the last
        conversion.

        A library API call (e.g. cudnnConvolutionForward) is a maximal
        run of launches of the same API within the same layer (ShuffleTensor
        + OffsetComp + the GEMM), and its host interval covers all their
        launch API calls.
        """
        # One entry per call: [api, start_ns, end_ns, library, n_kernels,
        # layer_index].
        calls: list[list] = []
        for record in self._read_launches():
            api = api_name_for(record)
            layer_index = record.layer_index
            if calls and calls[-1][0] == api and calls[-1][5] == layer_index:
                call = calls[-1]
                call[2] = record.api_end_ns
                call[4] += 1
            else:
                calls.append([
                    api, record.api_start_ns, record.api_end_ns,
                    str(record.spec.tags.get("library", "")), 1, layer_index,
                ])
        level = int(self.level)
        kind = _KIND_CODE[SpanKind.INTERNAL]
        tracer = self.name
        rows = [
            (api, start, end, level, kind, new_span_id(), NONE_ID, NONE_ID,
             _KEYS, (library, n_kernels, layer_index, tracer))
            for api, start, end, library, n_kernels, layer_index in calls
        ]
        self.server.publish_many(rows)

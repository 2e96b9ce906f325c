"""Library-level profiling — the paper's Sec. III-E extension.

"One can also add a ML library profiling level between the layer- and GPU
kernel-level to measure the cuDNN API calls."  This module does exactly
that: it synthesizes LIBRARY-level spans from the runtime's launch
records, grouping consecutive kernels of one library invocation within a
layer into a single API-call span (``cudnnConvolutionForward``,
``cublasSgemm``, ...).  The spans slot between the layer and GPU-kernel
levels, and the standard interval-containment reconstruction then parents
kernels on API calls and API calls on layers — no changes to the
framework or to the correlation machinery, demonstrating the design's
extensibility.
"""

from __future__ import annotations

from repro.sim.cuda import KernelLaunchRecord
from repro.sim.kernels import KernelClass
from repro.tracing.server import TracingServer
from repro.tracing.span import Level, Span
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
    """Tracer synthesizing library-API spans from kernel launch records."""

    def __init__(self, server: TracingServer) -> None:
        super().__init__("library_tracer", Level.LIBRARY, server)

    def convert(self, launch_records: list[KernelLaunchRecord]) -> None:
        """One span per maximal run of launches belonging to the same API
        call within the same layer.

        A library API call (e.g. cudnnConvolutionForward) may launch
        several kernels back-to-back (ShuffleTensor + OffsetComp + the
        GEMM); its host interval covers all their launch API calls.
        """
        spans: list[Span] = []
        group: list[KernelLaunchRecord] = []
        group_key: tuple[str, object] | None = None

        def flush() -> None:
            if not group:
                return
            api = api_name_for(group[0])
            spans.append(
                Span(
                    name=api,
                    start_ns=group[0].api_start_ns,
                    end_ns=group[-1].api_end_ns,
                    level=self.level,
                    tags={
                        "library": str(group[0].spec.tags.get("library", "")),
                        "n_kernels": len(group),
                        "layer_index": group[0].spec.tags.get("layer_index"),
                    },
                )
            )

        for record in launch_records:
            key = (
                api_name_for(record),
                record.spec.tags.get("layer_index"),
            )
            if key != group_key:
                flush()
                group = []
                group_key = key
            group.append(record)
        flush()
        self.publish_many(spans)

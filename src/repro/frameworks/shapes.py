"""Shape inference over the graph IR.

Tensors use NCHW layout (as the paper's Table II layer shapes do, e.g.
<256, 512, 7, 7>) or a flat (N, F) layout after Flatten/Dense.  Shape
inference is the ground truth for flop counts, DRAM traffic, and per-layer
memory allocation throughout the reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.frameworks.graph import Graph, Node

_F32 = 4


@dataclass(frozen=True)
class TensorShape:
    """An N-dimensional tensor shape (batch first)."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"invalid tensor shape {self.dims}")

    @property
    def batch(self) -> int:
        return self.dims[0]

    @property
    def channels(self) -> int:
        if len(self.dims) < 2:
            raise ValueError(f"shape {self.dims} has no channel dim")
        return self.dims[1]

    @property
    def height(self) -> int:
        if len(self.dims) != 4:
            raise ValueError(f"shape {self.dims} is not NCHW")
        return self.dims[2]

    @property
    def width(self) -> int:
        if len(self.dims) != 4:
            raise ValueError(f"shape {self.dims} is not NCHW")
        return self.dims[3]

    @property
    def elems(self) -> int:
        return math.prod(self.dims)

    @property
    def nbytes(self) -> int:
        return self.elems * _F32

    @property
    def per_image_elems(self) -> int:
        return self.elems // self.batch

    def __str__(self) -> str:
        return "⟨" + ", ".join(str(d) for d in self.dims) + "⟩"


def _conv_out(in_size: int, kernel: int, stride: int, padding: str) -> int:
    if padding == "same":
        return math.ceil(in_size / stride)
    if padding == "valid":
        return (in_size - kernel) // stride + 1
    raise ValueError(f"unknown padding {padding!r}")


def conv_padding_amount(in_size: int, kernel: int, stride: int, padding: str) -> int:
    """Per-side padding used when lowering to the cuDNN geometry.

    TF SAME padding can be asymmetric (e.g. (0, 1) for even inputs at
    stride 2); cuDNN geometries are symmetric, so round the per-side
    padding *up* to keep the lowered output size equal to the inferred
    SAME output size.
    """
    if padding == "same":
        out = math.ceil(in_size / stride)
        total = max(0, (out - 1) * stride + kernel - in_size)
        return (total + 1) // 2
    return 0


def infer_shapes(graph: Graph, batch: int) -> dict[str, TensorShape]:
    """Return output shape for every node at the given batch size."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    shapes: dict[str, TensorShape] = {}
    for node in graph.topological_order():
        shapes[node.name] = _infer_node(node, shapes, batch)
    return shapes


def _in(node: Node, shapes: dict[str, TensorShape], idx: int = 0) -> TensorShape:
    try:
        return shapes[node.inputs[idx]]
    except IndexError:
        raise ValueError(f"node {node.name!r} ({node.op}) missing input {idx}") from None


def _infer_node(node: Node, shapes: dict[str, TensorShape], batch: int) -> TensorShape:
    op = node.op
    a = node.attrs
    if op == "Input":
        c, h, w = a["shape"]
        return TensorShape((batch, c, h, w))
    if op == "Conv2D":
        x = _in(node, shapes)
        kh, kw = _pair(a["kernel"])
        sh, sw = _pair(a.get("strides", 1))
        padding = a.get("padding", "same")
        out_h = _conv_out(x.height, kh, sh, padding)
        out_w = _conv_out(x.width, kw, sw, padding)
        return TensorShape((x.batch, a["filters"], out_h, out_w))
    if op == "DepthwiseConv2D":
        x = _in(node, shapes)
        kh, kw = _pair(a["kernel"])
        sh, sw = _pair(a.get("strides", 1))
        padding = a.get("padding", "same")
        mult = a.get("depth_multiplier", 1)
        out_h = _conv_out(x.height, kh, sh, padding)
        out_w = _conv_out(x.width, kw, sw, padding)
        return TensorShape((x.batch, x.channels * mult, out_h, out_w))
    if op in ("BatchNorm", "Relu", "Relu6", "Sigmoid", "Tanh", "LRN", "Softmax",
              "Where", "Identity", "BiasAdd", "Transpose"):
        return _in(node, shapes)
    if op in ("MaxPool", "AvgPool"):
        x = _in(node, shapes)
        kh, kw = _pair(a["kernel"])
        sh, sw = _pair(a.get("strides", a["kernel"]))
        padding = a.get("padding", "valid")
        out_h = _conv_out(x.height, kh, sh, padding)
        out_w = _conv_out(x.width, kw, sw, padding)
        return TensorShape((x.batch, x.channels, out_h, out_w))
    if op == "GlobalAvgPool":
        x = _in(node, shapes)
        return TensorShape((x.batch, x.channels, 1, 1))
    if op == "Dense":
        x = _in(node, shapes)
        return TensorShape((x.batch, a["units"]))
    if op in ("Add", "Mul"):
        x = _in(node, shapes)
        for i in range(1, len(node.inputs)):
            other = _in(node, shapes, i)
            if other.dims != x.dims:
                raise ValueError(
                    f"node {node.name!r}: mismatched {op} shapes {x} vs {other}"
                )
        return x
    if op == "Concat":
        x = _in(node, shapes)
        channels = sum(_in(node, shapes, i).channels for i in range(len(node.inputs)))
        if len(x.dims) == 4:
            return TensorShape((x.batch, channels, x.height, x.width))
        return TensorShape((x.batch, channels))
    if op == "Flatten":
        x = _in(node, shapes)
        return TensorShape((x.batch, x.per_image_elems))
    if op == "Pad":
        x = _in(node, shapes)
        ph, pw = _pair(a.get("pad", 1))
        return TensorShape((x.batch, x.channels, x.height + 2 * ph, x.width + 2 * pw))
    if op == "ResizeBilinear":
        x = _in(node, shapes)
        scale = a.get("scale", 2)
        return TensorShape((x.batch, x.channels, x.height * scale, x.width * scale))
    raise ValueError(f"shape inference not implemented for op {op!r}")


def _pair(value: object) -> tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return (int(value[0]), int(value[1]))
    raise ValueError(f"expected int or pair, got {value!r}")


def model_weight_bytes(graph: Graph) -> int:
    """Total parameter bytes (proxy for the paper's frozen-graph size)."""
    total = 0
    shapes = infer_shapes(graph, batch=1)
    for node in graph.topological_order():
        a = node.attrs
        if node.op == "Conv2D":
            x = shapes[node.inputs[0]]
            kh, kw = _pair(a["kernel"])
            total += a["filters"] * x.channels * kh * kw * _F32
            if a.get("use_bias", False):
                total += a["filters"] * _F32
        elif node.op == "DepthwiseConv2D":
            x = shapes[node.inputs[0]]
            kh, kw = _pair(a["kernel"])
            total += x.channels * a.get("depth_multiplier", 1) * kh * kw * _F32
        elif node.op == "BatchNorm":
            x = shapes[node.inputs[0]]
            total += 4 * x.channels * _F32  # scale, shift, mean, variance
        elif node.op == "Dense":
            x = shapes[node.inputs[0]]
            total += a["units"] * x.per_image_elems * _F32 + a["units"] * _F32
    return total

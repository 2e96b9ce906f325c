"""Shape inference + flops accounting tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frameworks import Graph, TensorShape, infer_shapes
from repro.frameworks.shapes import model_weight_bytes


def test_tensor_shape_helpers():
    s = TensorShape((8, 64, 14, 14))
    assert s.batch == 8 and s.channels == 64
    assert s.height == s.width == 14
    assert s.elems == 8 * 64 * 14 * 14
    assert s.nbytes == s.elems * 4
    assert str(s) == "\u27e88, 64, 14, 14\u27e9"


def test_invalid_shape():
    with pytest.raises(ValueError):
        TensorShape((0, 3))


def test_conv_same_vs_valid():
    g = Graph("g")
    g.add_op("input", "Input", shape=(3, 224, 224))
    g.add_op("same", "Conv2D", ["input"], filters=64, kernel=7, strides=2,
             padding="same")
    g.add_op("valid", "Conv2D", ["same"], filters=64, kernel=3, strides=1,
             padding="valid")
    shapes = infer_shapes(g, 1)
    assert shapes["same"].dims == (1, 64, 112, 112)
    assert shapes["valid"].dims == (1, 64, 110, 110)


def test_full_cnn_shapes(cnn_graph):
    shapes = infer_shapes(cnn_graph, 4)
    assert shapes["conv1"].dims == (4, 16, 32, 32)
    assert shapes["pool"].dims == (4, 16, 16, 16)
    assert shapes["gap"].dims == (4, 16, 1, 1)
    assert shapes["fc"].dims == (4, 10)
    assert shapes["softmax"].dims == (4, 10)


def test_depthwise_multiplier():
    g = Graph("g")
    g.add_op("input", "Input", shape=(32, 56, 56))
    g.add_op("dw", "DepthwiseConv2D", ["input"], kernel=3, strides=2,
             padding="same", depth_multiplier=2)
    shapes = infer_shapes(g, 2)
    assert shapes["dw"].dims == (2, 64, 28, 28)


def test_concat_sums_channels():
    g = Graph("g")
    g.add_op("input", "Input", shape=(8, 10, 10))
    g.add_op("a", "Conv2D", ["input"], filters=4, kernel=1)
    g.add_op("b", "Conv2D", ["input"], filters=6, kernel=1)
    g.add_op("cat", "Concat", ["a", "b"])
    assert infer_shapes(g, 3)["cat"].dims == (3, 10, 10, 10)


def test_mismatched_add_rejected():
    g = Graph("g")
    g.add_op("input", "Input", shape=(8, 10, 10))
    g.add_op("a", "Conv2D", ["input"], filters=4, kernel=1)
    g.add_op("b", "Conv2D", ["input"], filters=6, kernel=1)
    g.add_op("bad", "Add", ["a", "b"])
    with pytest.raises(ValueError, match="mismatched"):
        infer_shapes(g, 1)


def test_flatten_resize_pad():
    g = Graph("g")
    g.add_op("input", "Input", shape=(2, 8, 8))
    g.add_op("pad", "Pad", ["input"], pad=2)
    g.add_op("up", "ResizeBilinear", ["pad"], scale=2)
    g.add_op("flat", "Flatten", ["up"])
    shapes = infer_shapes(g, 1)
    assert shapes["pad"].dims == (1, 2, 12, 12)
    assert shapes["up"].dims == (1, 2, 24, 24)
    assert shapes["flat"].dims == (1, 2 * 24 * 24)


def test_weight_bytes_counts_parameters(cnn_graph):
    weights = model_weight_bytes(cnn_graph)
    conv1 = 16 * 3 * 9 * 4
    conv2 = 16 * 16 * 9 * 4
    bn = 2 * 4 * 16 * 4
    fc = (10 * 16 + 10) * 4
    assert weights == conv1 + conv2 + bn + fc


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 512))
def test_batch_scales_elems_linearly(cnn_graph, batch):
    """Flop/byte accounting foundation: elems scale exactly with batch."""
    base = infer_shapes(cnn_graph, 1)
    scaled = infer_shapes(cnn_graph, batch)
    for name, shape in base.items():
        assert scaled[name].elems == shape.elems * batch

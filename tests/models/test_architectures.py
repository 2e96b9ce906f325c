"""Architecture-specific structure tests."""

from collections import Counter

import pytest

from repro.frameworks import TFSim
from repro.frameworks.shapes import infer_shapes, model_weight_bytes
from repro.models import get_model
from repro.models.mobilenet import mobilenet_v1, mobilenet_v2
from repro.models.resnet import mlperf_resnet50_v15, resnet_v1, resnet_v2
from repro.models.vgg import vgg
from repro.sim import CudaRuntime, VirtualClock, get_system


def _tf_plan(graph):
    rt = CudaRuntime(get_system("Tesla_V100"), VirtualClock())
    return TFSim(rt).load(graph)


def test_resnet50_conv_count():
    g = mlperf_resnet50_v15()
    assert g.op_histogram()["Conv2D"] == 53


def test_resnet50_tf_layer_count_near_paper():
    """Paper: 234 executed layers for MLPerf_ResNet50_v1.5."""
    model = _tf_plan(mlperf_resnet50_v15())
    assert 225 <= model.n_layers <= 240
    types = Counter(layer.layer_type for layer in model.plan)
    assert types["Conv2D"] == 53
    assert types["Mul"] == 53  # one per decomposed BN
    assert types["AddN"] == 16  # one per residual block


def test_resnet_depths_scale():
    assert resnet_v1(101).op_histogram()["Conv2D"] > \
        resnet_v1(50).op_histogram()["Conv2D"]
    assert resnet_v1(152).op_histogram()["Conv2D"] > \
        resnet_v1(101).op_histogram()["Conv2D"]


def test_resnet_v2_has_preactivation():
    g = resnet_v2(50)
    order = [n.op for n in g.topological_order()]
    # v2 starts stage blocks with BN before conv (after the stem).
    assert "BatchNorm" in order


def test_mobilenet_alpha_reduces_weights():
    full = model_weight_bytes(mobilenet_v1(1.0, 224))
    half = model_weight_bytes(mobilenet_v1(0.5, 224))
    quarter = model_weight_bytes(mobilenet_v1(0.25, 224))
    assert quarter < half < full


def test_mobilenet_resolution_changes_flops_not_weights():
    big = mobilenet_v1(1.0, 224)
    small = mobilenet_v1(1.0, 128)
    assert model_weight_bytes(big) == model_weight_bytes(small)
    shapes_big = infer_shapes(big, 1)
    shapes_small = infer_shapes(small, 1)
    assert shapes_big["conv2d"].elems > shapes_small["conv2d"].elems


def test_mobilenet_v2_inverted_residuals():
    g = mobilenet_v2(1.0, 224)
    assert g.op_histogram()["Add"] >= 5  # residual connections exist


def test_vgg_structure():
    g16, g19 = vgg(16), vgg(19)
    assert g16.op_histogram()["Conv2D"] == 13
    assert g19.op_histogram()["Conv2D"] == 16
    assert g16.op_histogram()["Dense"] == 3
    with pytest.raises(ValueError):
        vgg(11)


def test_vgg_graph_size_larger_than_resnet():
    """Table VIII: VGG16 528 MB vs ResNet50 ~100 MB graphs."""
    assert model_weight_bytes(vgg(16)) > \
        2 * model_weight_bytes(mlperf_resnet50_v15())


def test_inception_v3_has_parallel_branches():
    g = get_model(3).graph
    assert g.op_histogram()["Concat"] >= 9


def test_detection_models_dominated_by_where_ops():
    """Sec. IV-A: OD model graphs are full of Where layers."""
    for model_id in (40, 43, 44, 45, 47):
        hist = get_model(model_id).graph.op_histogram()
        assert hist["Where"] >= 50, f"model {model_id} has too few Where ops"


def test_faster_rcnn_nas_is_huge():
    g = get_model(38).graph
    hist = g.op_histogram()
    assert hist.get("DepthwiseConv2D", 0) >= 30


def test_deeplab_outputs_at_input_resolution_scale():
    g = get_model(52).graph
    shapes = infer_shapes(g, 1)
    out = [n for n in g.outputs()][0]
    assert shapes[out.name].height >= 500  # decoder upsamples back


def test_srgan_upscales_4x():
    g = get_model(55).graph
    shapes = infer_shapes(g, 1)
    out = g.outputs()[0]
    in_h = shapes[g.input_node.name].height
    assert shapes[out.name].height == in_h * 4

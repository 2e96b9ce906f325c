"""Graph-to-plan compilation with framework-specific rewrite passes.

A framework does not execute the model graph verbatim — "the measured
layers may be different from the ones statically defined in the model
graph, since a framework may perform model optimization at runtime"
(paper Sec. III-D2).  The TensorFlow-like framework decomposes BatchNorm
into Mul + Add element-wise layers (so ResNet's Conv->BN->Relu modules
execute as Conv2D -> Mul -> Add -> Relu), drops Identity ops, and splits
Dense into MatMul + BiasAdd.  The MXNet-like framework keeps BatchNorm and
Dense fused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.frameworks.graph import Graph, Node


@dataclass
class PlanLayer:
    """One executable layer in a compiled plan."""

    index: int
    name: str
    layer_type: str  # framework-native type label ("Conv2D", "Mul", ...)
    op: str  # neutral execution op driving kernel emission
    inputs: list[str]  # names of producer plan layers
    source: str  # original graph node whose output shape this layer has
    #: Graph node names whose shapes are this layer's input shapes.
    source_inputs: list[str] = field(default_factory=list)
    attrs: dict[str, Any] = field(default_factory=dict)
    #: ``repr(attrs)`` at construction: the plan's emission-memo key part.
    attrs_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.attrs_key = repr(self.attrs)


@dataclass(frozen=True)
class RewriteRules:
    """Per-framework compilation behaviour."""

    #: Decompose BatchNorm into Mul + Add element-wise layers (TF path).
    decompose_batchnorm: bool
    #: Split Dense into MatMul + BiasAdd layers (TF path).
    split_dense: bool
    #: Native type label per neutral op.
    type_map: dict[str, str]
    #: Name layers "<node>/<Type>" (TF style) instead of bare node names.
    slash_names: bool


def _layer_name(node_name: str, native_type: str, *, slash: bool) -> str:
    return f"{node_name}/{native_type}" if slash else node_name


def build_plan(graph: Graph, rules: RewriteRules) -> list[PlanLayer]:
    """Compile a graph into an ordered layer plan under ``rules``.

    Returns layers in execution order with 1-based indices (matching the
    paper's layer-index convention in Tables II/V).
    """
    graph.validate()
    plan: list[PlanLayer] = []
    # Graph node name -> plan layer name producing that node's value.
    produced_by: dict[str, str] = {}

    def emit(name: str, layer_type: str, op: str, inputs: list[str],
             source: str, source_inputs: list[str],
             attrs: dict[str, Any] | None) -> None:
        plan.append(PlanLayer(len(plan) + 1, name, layer_type, op, inputs,
                              source, source_inputs, dict(attrs or {})))

    def resolve_inputs(node: Node) -> list[str]:
        return [produced_by[i] for i in node.inputs]

    for node in graph.topological_order():
        op = node.op
        if op == "Identity":
            # Folded away at compile time; consumers read through it.
            produced_by[node.name] = produced_by[node.inputs[0]]
            continue

        if op == "BatchNorm" and rules.decompose_batchnorm:
            mul_name = _layer_name(node.name, "mul", slash=rules.slash_names)
            add_name = _layer_name(node.name, "add", slash=rules.slash_names)
            emit(mul_name, rules.type_map["EltMul"], "EltMul",
                 resolve_inputs(node), node.name, list(node.inputs), node.attrs)
            emit(add_name, rules.type_map["EltAdd"], "EltAdd",
                 [mul_name], node.name, [node.name], node.attrs)
            produced_by[node.name] = add_name
            continue

        if op == "Dense" and rules.split_dense:
            mm_name = _layer_name(node.name, rules.type_map["MatMul"],
                                  slash=rules.slash_names)
            ba_name = _layer_name(node.name, rules.type_map["BiasAdd"],
                                  slash=rules.slash_names)
            emit(mm_name, rules.type_map["MatMul"], "MatMul",
                 resolve_inputs(node), node.name, list(node.inputs), node.attrs)
            emit(ba_name, rules.type_map["BiasAdd"], "BiasAdd",
                 [mm_name], node.name, [node.name], node.attrs)
            produced_by[node.name] = ba_name
            continue

        neutral = _NEUTRAL_OPS.get(op, op)
        native = rules.type_map[neutral]
        name = _layer_name(node.name, native, slash=rules.slash_names)
        emit(name, native, neutral, resolve_inputs(node), node.name,
             list(node.inputs), node.attrs)
        produced_by[node.name] = name

    return plan


#: Graph ops whose neutral execution op has another name (the rest keep
#: theirs).  Multi-tensor adds (residual connections) are N-ary sums; TF
#: reports them as AddN, distinct from BN's broadcast Add.
_NEUTRAL_OPS = {
    "Input": "Data", "Add": "EltAddN", "Mul": "EltMul",
    "BatchNorm": "BatchNormFused", "GlobalAvgPool": "Mean",
    "Flatten": "Reshape", "ResizeBilinear": "Resize",
}


#: Neutral-op -> TensorFlow-native layer-type labels (paper's vocabulary:
#: Conv2D, DepthwiseConv2dNative, Mul, Add, AddN, Relu, Mean, MatMul...).
TF_TYPE_MAP: dict[str, str] = {
    "Data": "Data",
    "Conv2D": "Conv2D",
    "DepthwiseConv2D": "DepthwiseConv2dNative",
    "EltMul": "Mul",
    "EltAdd": "Add",
    "EltAddN": "AddN",
    "Relu": "Relu",
    "Relu6": "Relu6",
    "Sigmoid": "Sigmoid",
    "Tanh": "Tanh",
    "LRN": "LRN",
    "MaxPool": "MaxPool",
    "AvgPool": "AvgPool",
    "Mean": "Mean",
    "MatMul": "MatMul",
    "BiasAdd": "BiasAdd",
    "Softmax": "Softmax",
    "Concat": "ConcatV2",
    "Reshape": "Reshape",
    "Pad": "Pad",
    "Where": "Where",
    "Transpose": "Transpose",
    "Resize": "ResizeBilinear",
}

#: Neutral-op -> MXNet-native layer-type labels.
MX_TYPE_MAP: dict[str, str] = {
    "Data": "Data",
    "Conv2D": "Convolution",
    "DepthwiseConv2D": "Convolution",
    "BatchNormFused": "BatchNorm",
    "EltMul": "broadcast_mul",
    "EltAdd": "broadcast_add",
    "EltAddN": "elemwise_add",
    "Relu": "Activation",
    "Relu6": "clip",
    "Sigmoid": "Activation",
    "Tanh": "Activation",
    "LRN": "LRN",
    "MaxPool": "Pooling",
    "AvgPool": "Pooling",
    "Mean": "Pooling",
    "Dense": "FullyConnected",
    "BiasAdd": "broadcast_add",
    "Softmax": "softmax",
    "Concat": "Concat",
    "Reshape": "Flatten",
    "Pad": "Pad",
    "Where": "where",
    "Transpose": "transpose",
    "Resize": "UpSampling",
}

TF_REWRITE_RULES = RewriteRules(
    decompose_batchnorm=True,
    split_dense=True,
    type_map=TF_TYPE_MAP,
    slash_names=True,
)

MX_REWRITE_RULES = RewriteRules(
    decompose_batchnorm=False,
    split_dense=False,
    type_map=MX_TYPE_MAP,
    slash_names=False,
)

"""The ``graph`` dialect: tensor operations for the graph-level IR.

This dialect plays the role the third-party ``onnx`` dialect plays in the
paper: neural-network models are represented as a DAG of tensor operations
whose edges are SSA tensor values, so graph-level transforms (dataflow
legalization, function splitting) are simple define-use manipulations.

Layer weights are carried as *shape attributes* rather than operands: the
compilation flow never needs the numeric values, only the amount of
computation and the buffer sizes, and keeping weights out of the operand list
means the dataflow edges are exactly the activation tensors.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.dialect import register_operation
from repro.ir.operation import Operation
from repro.ir.types import TensorType
from repro.ir.value import Value


def _tensor(value: Value) -> TensorType:
    if not isinstance(value.type, TensorType):
        raise TypeError(f"expected a tensor-typed value, got {value.type}")
    return value.type


class GraphOp(Operation):
    """Common base of graph-level tensor operations."""

    __slots__ = ()

    def output_type(self) -> TensorType:
        return self.result().type

    def flops(self) -> int:
        """Multiply-accumulate style operation count of the layer."""
        return 0

    def weight_elements(self) -> int:
        """Number of weight parameters the layer carries."""
        shape = self.get_attr("weight_shape")
        total = 1 if shape else 0
        for d in shape or ():
            total *= d
        bias = self.get_attr("bias_shape")
        for d in bias or ():
            total += d if len(bias) == 1 else 0
        return total


@register_operation("graph", "conv2d")
class Conv2DOp(GraphOp):
    """2-D convolution (supports grouped/depthwise convolution via ``groups``)."""

    def __init__(self, input: Value, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, groups: int = 1,
                 has_bias: bool = True, name: str = ""):
        input_type = _tensor(input)
        n, c, h, w = input_type.shape
        if c % groups != 0 or out_channels % groups != 0:
            raise ValueError("channels must be divisible by groups")
        out_h = (h + 2 * padding - kernel_size) // stride + 1
        out_w = (w + 2 * padding - kernel_size) // stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError("convolution output would be empty")
        result_type = TensorType((n, out_channels, out_h, out_w), input_type.element_type)
        attrs = {
            "out_channels": out_channels,
            "kernel_size": kernel_size,
            "stride": stride,
            "padding": padding,
            "groups": groups,
            "weight_shape": (out_channels, c // groups, kernel_size, kernel_size),
            "bias_shape": (out_channels,) if has_bias else (),
        }
        if name:
            attrs["layer_name"] = name
        super().__init__("graph.conv2d", operands=[input], result_types=[result_type],
                         attributes=attrs)

    @property
    def input(self) -> Value:
        return self.operand(0)

    def flops(self) -> int:
        n, oc, oh, ow = self.output_type().shape
        _, ic_per_group, k, _ = self.get_attr("weight_shape")
        return 2 * n * oc * oh * ow * ic_per_group * k * k


@register_operation("graph", "dense")
class DenseOp(GraphOp):
    """Fully connected layer: ``output[n][o] = sum_i input[n][i] * W[o][i]``."""

    def __init__(self, input: Value, out_features: int, has_bias: bool = True,
                 name: str = ""):
        input_type = _tensor(input)
        if input_type.rank != 2:
            raise ValueError("dense expects a rank-2 input (batch, features)")
        n, in_features = input_type.shape
        result_type = TensorType((n, out_features), input_type.element_type)
        attrs = {
            "out_features": out_features,
            "weight_shape": (out_features, in_features),
            "bias_shape": (out_features,) if has_bias else (),
        }
        if name:
            attrs["layer_name"] = name
        super().__init__("graph.dense", operands=[input], result_types=[result_type],
                         attributes=attrs)

    @property
    def input(self) -> Value:
        return self.operand(0)

    def flops(self) -> int:
        n, out_features = self.output_type().shape
        _, in_features = self.get_attr("weight_shape")
        return 2 * n * out_features * in_features


@register_operation("graph", "relu")
class ReLUOp(GraphOp):
    """Element-wise rectified linear unit."""

    def __init__(self, input: Value, name: str = ""):
        input_type = _tensor(input)
        attrs = {"layer_name": name} if name else {}
        super().__init__("graph.relu", operands=[input], result_types=[input_type],
                         attributes=attrs)

    @property
    def input(self) -> Value:
        return self.operand(0)

    def flops(self) -> int:
        return self.output_type().num_elements


@register_operation("graph", "batchnorm")
class BatchNormOp(GraphOp):
    """Batch normalization (inference form: scale and shift per channel)."""

    def __init__(self, input: Value, name: str = ""):
        input_type = _tensor(input)
        channels = input_type.shape[1] if input_type.rank >= 2 else input_type.shape[0]
        attrs = {"weight_shape": (channels, 2), "bias_shape": ()}
        if name:
            attrs["layer_name"] = name
        super().__init__("graph.batchnorm", operands=[input], result_types=[input_type],
                         attributes=attrs)

    @property
    def input(self) -> Value:
        return self.operand(0)

    def flops(self) -> int:
        return 2 * self.output_type().num_elements


@register_operation("graph", "add")
class AddOp(GraphOp):
    """Element-wise addition of two equally shaped tensors (residual connections)."""

    def __init__(self, lhs: Value, rhs: Value, name: str = ""):
        lhs_type = _tensor(lhs)
        rhs_type = _tensor(rhs)
        if lhs_type.shape != rhs_type.shape:
            raise ValueError(f"shape mismatch in graph.add: {lhs_type} vs {rhs_type}")
        attrs = {"layer_name": name} if name else {}
        super().__init__("graph.add", operands=[lhs, rhs], result_types=[lhs_type],
                         attributes=attrs)

    def flops(self) -> int:
        return self.output_type().num_elements


@register_operation("graph", "maxpool2d")
class MaxPool2DOp(GraphOp):
    """2-D max pooling."""

    def __init__(self, input: Value, kernel_size: int, stride: Optional[int] = None,
                 padding: int = 0, name: str = ""):
        input_type = _tensor(input)
        stride = stride or kernel_size
        n, c, h, w = input_type.shape
        out_h = (h + 2 * padding - kernel_size) // stride + 1
        out_w = (w + 2 * padding - kernel_size) // stride + 1
        result_type = TensorType((n, c, out_h, out_w), input_type.element_type)
        attrs = {"kernel_size": kernel_size, "stride": stride, "padding": padding}
        if name:
            attrs["layer_name"] = name
        super().__init__("graph.maxpool2d", operands=[input], result_types=[result_type],
                         attributes=attrs)

    @property
    def input(self) -> Value:
        return self.operand(0)

    def flops(self) -> int:
        k = self.get_attr("kernel_size")
        return self.output_type().num_elements * k * k


@register_operation("graph", "avgpool2d")
class AvgPool2DOp(GraphOp):
    """2-D average pooling."""

    def __init__(self, input: Value, kernel_size: int, stride: Optional[int] = None,
                 padding: int = 0, name: str = ""):
        input_type = _tensor(input)
        stride = stride or kernel_size
        n, c, h, w = input_type.shape
        out_h = (h + 2 * padding - kernel_size) // stride + 1
        out_w = (w + 2 * padding - kernel_size) // stride + 1
        result_type = TensorType((n, c, out_h, out_w), input_type.element_type)
        attrs = {"kernel_size": kernel_size, "stride": stride, "padding": padding}
        if name:
            attrs["layer_name"] = name
        super().__init__("graph.avgpool2d", operands=[input], result_types=[result_type],
                         attributes=attrs)

    @property
    def input(self) -> Value:
        return self.operand(0)

    def flops(self) -> int:
        k = self.get_attr("kernel_size")
        return self.output_type().num_elements * k * k


@register_operation("graph", "flatten")
class FlattenOp(GraphOp):
    """Flatten every dimension but the batch dimension."""

    def __init__(self, input: Value, name: str = ""):
        input_type = _tensor(input)
        n = input_type.shape[0]
        rest = input_type.num_elements // n
        result_type = TensorType((n, rest), input_type.element_type)
        attrs = {"layer_name": name} if name else {}
        super().__init__("graph.flatten", operands=[input], result_types=[result_type],
                         attributes=attrs)

    @property
    def input(self) -> Value:
        return self.operand(0)


@register_operation("graph", "copy")
class CopyOp(GraphOp):
    """An explicit tensor copy, inserted by aggressive dataflow legalization."""

    def __init__(self, input: Value, name: str = ""):
        input_type = _tensor(input)
        attrs = {"layer_name": name} if name else {}
        super().__init__("graph.copy", operands=[input], result_types=[input_type],
                         attributes=attrs)

    @property
    def input(self) -> Value:
        return self.operand(0)

    def flops(self) -> int:
        return self.output_type().num_elements


#: Graph operation names considered dataflow "procedures" (nodes).
GRAPH_NODE_OPS = {
    "graph.conv2d", "graph.dense", "graph.relu", "graph.batchnorm", "graph.add",
    "graph.maxpool2d", "graph.avgpool2d", "graph.flatten", "graph.copy",
}


def graph_nodes(func_op: Operation) -> list[Operation]:
    """Graph-dialect operations directly inside a function body, in order."""
    return [op for op in func_op.region(0).front.operations if op.name in GRAPH_NODE_OPS]

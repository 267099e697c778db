"""A PyTorch-like model building API producing graph-level IR.

The paper imports PyTorch/ONNX models through Torch-MLIR and ONNX-MLIR; this
module provides the equivalent entry point for the reproduction: a
:class:`GraphBuilder` with layer methods (``conv2d``, ``relu``, ``dense`` ...)
that append graph-dialect operations to a ``forward`` function.  The builders
in :mod:`repro.frontend.models` use it to construct ResNet-18, VGG-16 and
MobileNet for the CIFAR-10 input shape used in the paper's evaluation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dialects import func, graph, hlscpp
from repro.ir.builder import Builder
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.types import FunctionType, TensorType, f32
from repro.ir.value import Value


class GraphBuilder:
    """Builds a single-function graph-level module layer by layer."""

    def __init__(self, model_name: str = "model", input_shape: Sequence[int] = (1, 3, 32, 32),
                 func_name: str = "forward"):
        self.module = ModuleOp(model_name)
        input_type = TensorType(tuple(input_shape), f32)
        self.func_op = func.FuncOp(func_name, FunctionType([input_type], []))
        self.module.append(self.func_op)
        hlscpp.set_top_function(self.func_op)
        self.builder = Builder()
        self.builder.set_insertion_point_to_end(self.func_op.body)
        self.input: Value = self.func_op.arguments[0]
        self._finished = False
        self._layer_counter = 0

    # -- layer methods ----------------------------------------------------------------

    def conv2d(self, x: Value, out_channels: int, kernel_size: int, stride: int = 1,
               padding: int = 0, groups: int = 1, bias: bool = True,
               name: str = "") -> Value:
        op = self.builder.insert(graph.Conv2DOp(
            x, out_channels, kernel_size, stride=stride, padding=padding,
            groups=groups, has_bias=bias, name=name or self._auto_name("conv")))
        return op.result()

    def depthwise_conv2d(self, x: Value, kernel_size: int, stride: int = 1,
                         padding: int = 0, name: str = "") -> Value:
        channels = x.type.shape[1]
        return self.conv2d(x, channels, kernel_size, stride=stride, padding=padding,
                           groups=channels, name=name or self._auto_name("dwconv"))

    def batchnorm(self, x: Value, name: str = "") -> Value:
        op = self.builder.insert(graph.BatchNormOp(x, name=name or self._auto_name("bn")))
        return op.result()

    def relu(self, x: Value, name: str = "") -> Value:
        op = self.builder.insert(graph.ReLUOp(x, name=name or self._auto_name("relu")))
        return op.result()

    def add(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        op = self.builder.insert(graph.AddOp(lhs, rhs, name=name or self._auto_name("add")))
        return op.result()

    def maxpool2d(self, x: Value, kernel_size: int, stride: Optional[int] = None,
                  padding: int = 0, name: str = "") -> Value:
        op = self.builder.insert(graph.MaxPool2DOp(
            x, kernel_size, stride=stride, padding=padding,
            name=name or self._auto_name("maxpool")))
        return op.result()

    def avgpool2d(self, x: Value, kernel_size: int, stride: Optional[int] = None,
                  padding: int = 0, name: str = "") -> Value:
        op = self.builder.insert(graph.AvgPool2DOp(
            x, kernel_size, stride=stride, padding=padding,
            name=name or self._auto_name("avgpool")))
        return op.result()

    def global_avgpool2d(self, x: Value, name: str = "") -> Value:
        spatial = x.type.shape[2]
        return self.avgpool2d(x, spatial, name=name or self._auto_name("gap"))

    def flatten(self, x: Value, name: str = "") -> Value:
        op = self.builder.insert(graph.FlattenOp(x, name=name or self._auto_name("flatten")))
        return op.result()

    def dense(self, x: Value, out_features: int, bias: bool = True, name: str = "") -> Value:
        op = self.builder.insert(graph.DenseOp(
            x, out_features, has_bias=bias, name=name or self._auto_name("fc")))
        return op.result()

    # -- composite blocks ---------------------------------------------------------------

    def conv_bn_relu(self, x: Value, out_channels: int, kernel_size: int,
                     stride: int = 1, padding: int = 0, groups: int = 1,
                     name: str = "") -> Value:
        x = self.conv2d(x, out_channels, kernel_size, stride=stride, padding=padding,
                        groups=groups, name=name)
        x = self.batchnorm(x)
        return self.relu(x)

    # -- finalisation ---------------------------------------------------------------------

    def finish(self, output: Value) -> ModuleOp:
        """Mark ``output`` as the model result and return the finished module."""
        if self._finished:
            raise RuntimeError("the builder has already been finished")
        self.func_op.set_result_types([output.type])
        self.builder.insert(func.ReturnOp([output]))
        self._finished = True
        return self.module

    # -- helpers -----------------------------------------------------------------------------

    def _auto_name(self, prefix: str) -> str:
        self._layer_counter += 1
        return f"{prefix}_{self._layer_counter}"


def model_flops(root: Operation) -> int:
    """Total multiply-accumulate style operations of every graph op inside
    ``root`` (a model module, or one of its functions)."""
    total = 0
    for op in root.walk():
        if isinstance(op, graph.GraphOp):
            total += op.flops()
    return total


def model_parameters(module: ModuleOp) -> int:
    """Total number of weight parameters of every graph op in the module."""
    total = 0
    for op in module.walk():
        if isinstance(op, graph.GraphOp):
            total += op.weight_elements()
    return total

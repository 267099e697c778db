"""Lowering of graph-level tensor operations to affine loop nests over memrefs.

This is the bufferization + lowering step between the graph-level IR and the
loop-level IR: every tensor becomes an on-chip buffer and every graph
operation becomes one or more affine loop nests.  Convolution and dense
weights are materialized as 8-bit buffers (dequantized on the fly), which is
what keeps ResNet-18-class models within the on-chip memory budget of one
VU9P SLR, as the paper's memory utilization numbers imply.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.affine.expr import AffineExpr, constant as const_expr, dim as dim_expr
from repro.affine.map import AffineMap
from repro.affine.set import Constraint, IntegerSet
from repro.dialects import arith, memref as memref_dialect
from repro.dialects.affine_ops import AffineForOp, AffineIfOp, AffineLoadOp, AffineStoreOp
from repro.dialects.graph import GraphOp
from repro.ir.block import Block
from repro.ir.builder import Builder
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.pass_manager import ModulePass, PassError
from repro.ir.pass_registry import register_pass
from repro.ir.types import (
    FunctionType,
    IntegerType,
    MemRefType,
    TensorType,
    f32,
)
from repro.ir.value import Value

#: Element type used for quantized convolution / dense weights.
WEIGHT_TYPE = IntegerType(8)


def lower_graph_to_loops(module: ModuleOp) -> int:
    """Lower every graph operation in the module.  Returns the number lowered."""
    lowered = 0
    for func_op in module.functions():
        _retype_function(func_op)
    for func_op in module.functions():
        lowered += _lower_function(func_op)
    _retype_calls(module)
    return lowered


@register_pass("lower-graph-to-loops")
class LowerGraphPass(ModulePass):
    """Pass wrapper around :func:`lower_graph_to_loops`."""

    def run(self, module: Operation) -> None:
        if isinstance(module, ModuleOp):
            lower_graph_to_loops(module)


# -- signature rewriting ------------------------------------------------------------------------


def _tensor_to_memref(tensor_type: TensorType) -> MemRefType:
    return MemRefType(tensor_type.shape, tensor_type.element_type)


def _retype_function(func_op: Operation) -> None:
    for argument in func_op.region(0).front.arguments:
        if isinstance(argument.type, TensorType):
            argument.type = _tensor_to_memref(argument.type)
    function_type: FunctionType = func_op.get_attr("function_type")
    inputs = [t if not isinstance(t, TensorType) else _tensor_to_memref(t)
              for t in function_type.inputs]
    results = [t if not isinstance(t, TensorType) else _tensor_to_memref(t)
               for t in function_type.results]
    func_op.set_attr("function_type", FunctionType(inputs, results))


def _retype_calls(module: ModuleOp) -> None:
    for op in module.walk():
        if op.name != "func.call":
            continue
        for result in op.results:
            if isinstance(result.type, TensorType):
                result.type = _tensor_to_memref(result.type)


# -- per-function lowering ----------------------------------------------------------------------


def _lower_function(func_op: Operation) -> int:
    lowered = 0
    builder = Builder()
    for op in list(func_op.region(0).front.operations):
        if not isinstance(op, GraphOp):
            continue
        builder.set_insertion_point_before(op)
        output_buffer = _lower_graph_op(builder, op)
        op.result().replace_all_uses_with(output_buffer)
        op.erase()
        lowered += 1
    return lowered


def _buffer_stem(op: GraphOp) -> str:
    """The name of ``op``'s output buffer; its parameter buffers add ``_*``."""
    return op.get_attr("layer_name", "") or op.name.split(".")[-1]


def buffer_stems(func_op: Operation) -> list[str]:
    """Every graph op's buffer stem, in the order lowering visits them."""
    return [_buffer_stem(op) for op in func_op.region(0).front.operations
            if isinstance(op, GraphOp)]


def rename_buffers(func_op: Operation, olds: Sequence[str], news: Sequence[str]) -> None:
    """Rename a lowered function's buffers named ``old`` or ``old_*`` after
    ``new``, zipping the stems in op order, the longest old stem first."""
    for op in func_op.region(0).front.operations:
        name = op.get_attr("buffer_name", "")
        for old, new in sorted(zip(olds, news), key=lambda pair: -len(pair[0])):
            if name == old or name.startswith(old + "_"):
                op.set_attr("buffer_name", new + name[len(old):])
                break


def _lower_graph_op(builder: Builder, op: GraphOp) -> Value:
    output_type = _tensor_to_memref(op.output_type())
    output = builder.insert(memref_dialect.AllocOp(output_type, name=_buffer_stem(op))).result()

    handlers = {
        "graph.conv2d": _lower_conv2d,
        "graph.dense": _lower_dense,
        "graph.relu": _lower_relu,
        "graph.batchnorm": _lower_batchnorm,
        "graph.add": _lower_add,
        "graph.maxpool2d": _lower_maxpool,
        "graph.avgpool2d": _lower_avgpool,
        "graph.flatten": _lower_flatten,
        "graph.copy": _lower_copy,
    }
    handler = handlers.get(op.name)
    if handler is None:
        raise PassError(f"no lowering for {op.name}")
    handler(builder, op, output)
    return output


# -- loop-nest helpers ---------------------------------------------------------------------------


def _build_nest(builder: Builder, bounds: Sequence[int]) -> tuple[list[AffineForOp], list[Value]]:
    """Create a nest of constant-bound loops and return (loops, induction variables)."""
    loops: list[AffineForOp] = []
    ivs: list[Value] = []
    for bound in bounds:
        loop = AffineForOp.constant_bounds(0, int(bound))
        if loops:
            loops[-1].body.append(loop)
        else:
            builder.insert(loop)
        loops.append(loop)
        ivs.append(loop.induction_variable)
    return loops, ivs


def _body_builder(loops: Sequence[AffineForOp], builder: Builder) -> Builder:
    inner = Builder()
    if loops:
        inner.set_insertion_point_to_end(loops[-1].body)
    else:
        inner.insertion_point = builder.insertion_point
    return inner


def _constant(builder: Builder, value, type) -> Value:
    return builder.insert(arith.ConstantOp(value, type)).result()


def _load(builder: Builder, buffer: Value, ivs: Sequence[Value],
          exprs: Optional[Sequence[AffineExpr]] = None) -> Value:
    if exprs is None:
        exprs = [dim_expr(i) for i in range(len(ivs))]
    access_map = AffineMap(len(ivs), 0, exprs)
    return builder.insert(AffineLoadOp(buffer, ivs, access_map)).result()


def _store(builder: Builder, value: Value, buffer: Value, ivs: Sequence[Value],
           exprs: Optional[Sequence[AffineExpr]] = None) -> None:
    if exprs is None:
        exprs = [dim_expr(i) for i in range(len(ivs))]
    access_map = AffineMap(len(ivs), 0, exprs)
    builder.insert(AffineStoreOp(value, buffer, ivs, access_map))


def _weight_buffer(builder: Builder, op: GraphOp, element_type, suffix: str = "weight") -> Value:
    shape = op.get_attr("weight_shape")
    name = f"{_buffer_stem(op)}_{suffix}"
    buffer_type = MemRefType(shape, element_type)
    return builder.insert(memref_dialect.AllocOp(buffer_type, name=name)).result()


def _bias_buffer(builder: Builder, op: GraphOp) -> Optional[Value]:
    bias_shape = op.get_attr("bias_shape")
    if not bias_shape:
        return None
    name = _buffer_stem(op) + "_bias"
    return builder.insert(memref_dialect.AllocOp(MemRefType(bias_shape, f32), name=name)).result()


def _dequantize(builder: Builder, value: Value) -> Value:
    if isinstance(value.type, IntegerType):
        return builder.insert(arith.SIToFPOp(value, f32)).result()
    return value


# -- per-op lowerings ------------------------------------------------------------------------------


def _init_output(builder: Builder, output: Value, shape: Sequence[int],
                 bias: Optional[Value] = None, init_value: float = 0.0,
                 channel_dim: int = 1) -> None:
    """Zero / bias initialisation nest over the full output buffer."""
    loops, ivs = _build_nest(builder, shape)
    body = _body_builder(loops, builder)
    if bias is not None:
        value = body.insert(AffineLoadOp(bias, [ivs[channel_dim]],
                                         AffineMap.identity(1))).result()
    else:
        value = _constant(body, init_value, f32)
    _store(body, value, output, ivs)


def _lower_conv2d(builder: Builder, op: GraphOp, output: Value) -> None:
    input_buffer = op.operand(0)
    n, in_channels, in_h, in_w = op.operand(0).type.shape
    _, out_channels, out_h, out_w = op.output_type().shape
    kernel = op.get_attr("kernel_size")
    stride = op.get_attr("stride")
    padding = op.get_attr("padding")
    groups = op.get_attr("groups")
    ic_per_group = in_channels // groups
    oc_per_group = out_channels // groups

    weights = _weight_buffer(builder, op, WEIGHT_TYPE)
    bias = _bias_buffer(builder, op)
    _init_output(builder, output, (n, out_channels, out_h, out_w), bias)

    # Reduction nest: n, oc, oh, ow, ic (per group), kh, kw.
    loops, ivs = _build_nest(builder, (n, out_channels, out_h, out_w,
                                       ic_per_group, kernel, kernel))
    body = _body_builder(loops, builder)
    iv_n, iv_oc, iv_oh, iv_ow, iv_ic, iv_kh, iv_kw = ivs

    # Input spatial coordinates as affine expressions of the loop dims.
    d = [dim_expr(i) for i in range(7)]
    h_expr = d[2] * stride + d[5] - padding
    w_expr = d[3] * stride + d[6] - padding
    channel_expr = (d[1].floordiv(oc_per_group)) * ic_per_group + d[4]

    mac_builder = body
    if padding > 0:
        guard = IntegerSet(7, 0, [
            Constraint(h_expr, False),
            Constraint(const_expr(in_h - 1) - h_expr, False),
            Constraint(w_expr, False),
            Constraint(const_expr(in_w - 1) - w_expr, False),
        ])
        if_op = body.insert(AffineIfOp(guard, list(ivs)))
        mac_builder = Builder()
        mac_builder.set_insertion_point_to_end(if_op.then_block)

    input_value = _load(mac_builder, input_buffer, ivs,
                        [d[0], channel_expr, h_expr, w_expr])
    weight_value = _load(mac_builder, weights, ivs, [d[1], d[4], d[5], d[6]])
    weight_value = _dequantize(mac_builder, weight_value)
    product = mac_builder.insert(arith.MulFOp(input_value, weight_value)).result()
    accumulator = _load(mac_builder, output, ivs, [d[0], d[1], d[2], d[3]])
    updated = mac_builder.insert(arith.AddFOp(accumulator, product)).result()
    _store(mac_builder, updated, output, ivs, [d[0], d[1], d[2], d[3]])


def _lower_dense(builder: Builder, op: GraphOp, output: Value) -> None:
    input_buffer = op.operand(0)
    n, in_features = input_buffer.type.shape
    _, out_features = op.output_type().shape

    weights = _weight_buffer(builder, op, WEIGHT_TYPE)
    bias = _bias_buffer(builder, op)
    _init_output(builder, output, (n, out_features), bias, channel_dim=1)

    loops, ivs = _build_nest(builder, (n, out_features, in_features))
    body = _body_builder(loops, builder)
    d = [dim_expr(i) for i in range(3)]
    input_value = _load(body, input_buffer, ivs, [d[0], d[2]])
    weight_value = _load(body, weights, ivs, [d[1], d[2]])
    weight_value = _dequantize(body, weight_value)
    product = body.insert(arith.MulFOp(input_value, weight_value)).result()
    accumulator = _load(body, output, ivs, [d[0], d[1]])
    updated = body.insert(arith.AddFOp(accumulator, product)).result()
    _store(body, updated, output, ivs, [d[0], d[1]])


def _lower_relu(builder: Builder, op: GraphOp, output: Value) -> None:
    input_buffer = op.operand(0)
    shape = op.output_type().shape
    loops, ivs = _build_nest(builder, shape)
    body = _body_builder(loops, builder)
    value = _load(body, input_buffer, ivs)
    zero = _constant(body, 0.0, f32)
    result = body.insert(arith.MaxFOp(value, zero)).result()
    _store(body, result, output, ivs)


def _lower_batchnorm(builder: Builder, op: GraphOp, output: Value) -> None:
    input_buffer = op.operand(0)
    shape = op.output_type().shape
    channel_dim = 1 if len(shape) >= 2 else 0
    params = _weight_buffer(builder, op, f32, suffix="params")
    loops, ivs = _build_nest(builder, shape)
    body = _body_builder(loops, builder)
    value = _load(body, input_buffer, ivs)
    channel_iv = ivs[channel_dim]
    scale = body.insert(AffineLoadOp(params, [channel_iv],
                                     AffineMap(1, 0, [dim_expr(0), const_expr(0)]))).result()
    shift = body.insert(AffineLoadOp(params, [channel_iv],
                                     AffineMap(1, 0, [dim_expr(0), const_expr(1)]))).result()
    scaled = body.insert(arith.MulFOp(value, scale)).result()
    shifted = body.insert(arith.AddFOp(scaled, shift)).result()
    _store(body, shifted, output, ivs)


def _lower_add(builder: Builder, op: GraphOp, output: Value) -> None:
    lhs, rhs = op.operand(0), op.operand(1)
    shape = op.output_type().shape
    loops, ivs = _build_nest(builder, shape)
    body = _body_builder(loops, builder)
    a = _load(body, lhs, ivs)
    b = _load(body, rhs, ivs)
    result = body.insert(arith.AddFOp(a, b)).result()
    _store(body, result, output, ivs)


def _lower_maxpool(builder: Builder, op: GraphOp, output: Value) -> None:
    input_buffer = op.operand(0)
    n, channels, out_h, out_w = op.output_type().shape
    kernel = op.get_attr("kernel_size")
    stride = op.get_attr("stride")
    _init_output(builder, output, (n, channels, out_h, out_w), init_value=-3.0e38)

    loops, ivs = _build_nest(builder, (n, channels, out_h, out_w, kernel, kernel))
    body = _body_builder(loops, builder)
    d = [dim_expr(i) for i in range(6)]
    value = _load(body, input_buffer, ivs,
                  [d[0], d[1], d[2] * stride + d[4], d[3] * stride + d[5]])
    current = _load(body, output, ivs, [d[0], d[1], d[2], d[3]])
    result = body.insert(arith.MaxFOp(current, value)).result()
    _store(body, result, output, ivs, [d[0], d[1], d[2], d[3]])


def _lower_avgpool(builder: Builder, op: GraphOp, output: Value) -> None:
    input_buffer = op.operand(0)
    n, channels, out_h, out_w = op.output_type().shape
    kernel = op.get_attr("kernel_size")
    stride = op.get_attr("stride")
    _init_output(builder, output, (n, channels, out_h, out_w))

    loops, ivs = _build_nest(builder, (n, channels, out_h, out_w, kernel, kernel))
    body = _body_builder(loops, builder)
    d = [dim_expr(i) for i in range(6)]
    value = _load(body, input_buffer, ivs,
                  [d[0], d[1], d[2] * stride + d[4], d[3] * stride + d[5]])
    current = _load(body, output, ivs, [d[0], d[1], d[2], d[3]])
    result = body.insert(arith.AddFOp(current, value)).result()
    _store(body, result, output, ivs, [d[0], d[1], d[2], d[3]])

    # Scale nest: divide by the pooling window size.
    scale_loops, scale_ivs = _build_nest(builder, (n, channels, out_h, out_w))
    scale_body = _body_builder(scale_loops, builder)
    accumulated = _load(scale_body, output, scale_ivs)
    factor = _constant(scale_body, 1.0 / (kernel * kernel), f32)
    scaled = scale_body.insert(arith.MulFOp(accumulated, factor)).result()
    _store(scale_body, scaled, output, scale_ivs)


def _lower_flatten(builder: Builder, op: GraphOp, output: Value) -> None:
    input_buffer = op.operand(0)
    shape = input_buffer.type.shape
    loops, ivs = _build_nest(builder, shape)
    body = _body_builder(loops, builder)
    value = _load(body, input_buffer, ivs)
    # Flattened index: row-major combination of every non-batch dimension.
    d = [dim_expr(i) for i in range(len(shape))]
    flat = const_expr(0)
    for position in range(1, len(shape)):
        size = 1
        for later in shape[position + 1:]:
            size *= later
        flat = flat + d[position] * size
    _store(body, value, output, ivs, [d[0], flat])


def _lower_copy(builder: Builder, op: GraphOp, output: Value) -> None:
    input_buffer = op.operand(0)
    shape = op.output_type().shape
    loops, ivs = _build_nest(builder, shape)
    body = _body_builder(loops, builder)
    value = _load(body, input_buffer, ivs)
    _store(body, value, output, ivs)

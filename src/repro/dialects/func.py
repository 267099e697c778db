"""The ``func`` dialect: functions, calls and returns."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.block import Block
from repro.ir.dialect import register_operation
from repro.ir.operation import Operation
from repro.ir.types import FunctionType, Type
from repro.ir.value import BlockArgument, Value


@register_operation("func", "func")
class FuncOp(Operation):
    """A function definition owning a single-block body region."""

    __slots__ = ()

    def __init__(self, sym_name: str, function_type: FunctionType,
                 attributes: Optional[dict] = None):
        attrs = dict(attributes or {})
        attrs["sym_name"] = sym_name
        attrs["function_type"] = function_type
        super().__init__("func.func", attributes=attrs, num_regions=1)
        self.region(0).add_block(Block(function_type.inputs))

    # -- accessors -------------------------------------------------------------------

    @property
    def sym_name(self) -> str:
        return self.get_attr("sym_name")

    @sym_name.setter
    def sym_name(self, value: str) -> None:
        self.set_attr("sym_name", value)

    @property
    def function_type(self) -> FunctionType:
        return self.get_attr("function_type")

    @property
    def body(self) -> Block:
        return self.region(0).front

    @property
    def arguments(self) -> list[BlockArgument]:
        return list(self.body.arguments)

    def add_argument(self, type: Type) -> BlockArgument:
        """Append a function argument, updating the function type."""
        argument = self.body.add_argument(type)
        current = self.function_type
        self.set_attr("function_type",
                      FunctionType(list(current.inputs) + [type], current.results))
        return argument

    def set_result_types(self, result_types: Sequence[Type]) -> None:
        current = self.function_type
        self.set_attr("function_type", FunctionType(current.inputs, result_types))

    def return_op(self) -> Optional["ReturnOp"]:
        for op in reversed(self.body.operations):
            if op.name == "func.return":
                return op
        return None


@register_operation("func", "return")
class ReturnOp(Operation):
    """Function terminator, optionally returning values."""

    __slots__ = ()

    def __init__(self, operands: Sequence[Value] = ()):
        super().__init__("func.return", operands=operands)


@register_operation("func", "call")
class CallOp(Operation):
    """A call to a function identified by symbol name."""

    __slots__ = ()

    def __init__(self, callee: str, operands: Sequence[Value] = (),
                 result_types: Sequence[Type] = ()):
        super().__init__("func.call", operands=operands, result_types=result_types,
                         attributes={"callee": callee})

    @property
    def callee(self) -> str:
        return self.get_attr("callee")

    @callee.setter
    def callee(self, value: str) -> None:
        self.set_attr("callee", value)


def build_function(module, sym_name: str, input_types: Sequence[Type],
                   result_types: Sequence[Type] = ()) -> FuncOp:
    """Create a function, append it to ``module`` and return it."""
    func_op = FuncOp(sym_name, FunctionType(input_types, result_types))
    module.append(func_op)
    return func_op

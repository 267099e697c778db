"""The top-level ``builtin.module`` operation."""

from __future__ import annotations

from typing import Optional

from repro.ir.block import Block
from repro.ir.operation import Operation


class ModuleOp(Operation):
    """A container for functions (and other top-level operations)."""

    __slots__ = ()

    OP_NAME = "builtin.module"

    def __init__(self, name: str = ""):
        super().__init__(self.OP_NAME, attributes={"sym_name": name} if name else {},
                         num_regions=1)
        self.region(0).add_block(Block())

    @property
    def body(self) -> Block:
        return self.region(0).front

    def functions(self) -> list[Operation]:
        """Every ``func.func`` directly contained in the module."""
        return [op for op in self.body.operations if op.name == "func.func"]

    def lookup(self, symbol_name: str) -> Optional[Operation]:
        """Find a function by its ``sym_name`` attribute."""
        for op in self.body.operations:
            if op.get_attr("sym_name") == symbol_name:
                return op
        return None

    def function(self, func_name: Optional[str] = None) -> Operation:
        """The function named ``func_name``, or the first one when it is
        None; ``ValueError`` naming a function the module lacks."""
        if not func_name:
            return self.functions()[0]
        func_op = self.lookup(func_name)
        if func_op is None:
            raise ValueError(f"function {func_name!r} not found in the module")
        return func_op

    def append(self, op: Operation) -> Operation:
        return self.body.append(op)

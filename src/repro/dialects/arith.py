"""The ``arith`` dialect: constants, integer/float arithmetic and comparisons."""

from __future__ import annotations

from typing import Optional

from repro.ir.dialect import register_operation
from repro.ir.operation import Operation
from repro.ir.types import FloatType, IndexType, IntegerType, Type, f32, i1, index
from repro.ir.value import Value


@register_operation("arith", "constant")
class ConstantOp(Operation):
    """A compile-time constant of integer, index or float type."""

    __slots__ = ()

    def __init__(self, value, type: Type):
        if isinstance(type, (IntegerType, IndexType)):
            value = int(value)
        elif isinstance(type, FloatType):
            value = float(value)
        super().__init__("arith.constant", result_types=[type],
                         attributes={"value": value})

    @property
    def value(self):
        return self.get_attr("value")


class _BinaryOp(Operation):
    """Common base of element-wise binary arithmetic operations."""

    __slots__ = ()

    MNEMONIC = ""

    def __init__(self, lhs: Value, rhs: Value, result_type: Optional[Type] = None):
        if result_type is None:
            result_type = lhs.type
        super().__init__(f"arith.{self.MNEMONIC}", operands=[lhs, rhs],
                         result_types=[result_type])

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


@register_operation("arith", "addf")
class AddFOp(_BinaryOp):

    __slots__ = ()
    MNEMONIC = "addf"


@register_operation("arith", "subf")
class SubFOp(_BinaryOp):

    __slots__ = ()
    MNEMONIC = "subf"


@register_operation("arith", "mulf")
class MulFOp(_BinaryOp):

    __slots__ = ()
    MNEMONIC = "mulf"


@register_operation("arith", "divf")
class DivFOp(_BinaryOp):

    __slots__ = ()
    MNEMONIC = "divf"


@register_operation("arith", "addi")
class AddIOp(_BinaryOp):

    __slots__ = ()
    MNEMONIC = "addi"


@register_operation("arith", "subi")
class SubIOp(_BinaryOp):

    __slots__ = ()
    MNEMONIC = "subi"


@register_operation("arith", "muli")
class MulIOp(_BinaryOp):

    __slots__ = ()
    MNEMONIC = "muli"


@register_operation("arith", "divsi")
class DivSIOp(_BinaryOp):

    __slots__ = ()
    MNEMONIC = "divsi"


@register_operation("arith", "remsi")
class RemSIOp(_BinaryOp):

    __slots__ = ()
    MNEMONIC = "remsi"


@register_operation("arith", "maxf")
class MaxFOp(_BinaryOp):

    __slots__ = ()
    MNEMONIC = "maxf"


#: Comparison predicates recognised by :class:`CmpIOp` / :class:`CmpFOp`.
CMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "olt", "ole", "ogt", "oge")


@register_operation("arith", "cmpi")
class CmpIOp(Operation):
    """Integer comparison producing an ``i1``."""

    __slots__ = ()

    def __init__(self, predicate: str, lhs: Value, rhs: Value):
        if predicate not in CMP_PREDICATES:
            raise ValueError(f"unknown predicate {predicate!r}")
        super().__init__("arith.cmpi", operands=[lhs, rhs], result_types=[i1],
                         attributes={"predicate": predicate})

    @property
    def predicate(self) -> str:
        return self.get_attr("predicate")


@register_operation("arith", "cmpf")
class CmpFOp(Operation):
    """Float comparison producing an ``i1``."""

    __slots__ = ()

    def __init__(self, predicate: str, lhs: Value, rhs: Value):
        if predicate not in CMP_PREDICATES:
            raise ValueError(f"unknown predicate {predicate!r}")
        super().__init__("arith.cmpf", operands=[lhs, rhs], result_types=[i1],
                         attributes={"predicate": predicate})

    @property
    def predicate(self) -> str:
        return self.get_attr("predicate")


@register_operation("arith", "select")
class SelectOp(Operation):
    """Select between two values based on an ``i1`` condition."""

    __slots__ = ()

    def __init__(self, condition: Value, true_value: Value, false_value: Value):
        super().__init__("arith.select",
                         operands=[condition, true_value, false_value],
                         result_types=[true_value.type])

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def true_value(self) -> Value:
        return self.operand(1)

    @property
    def false_value(self) -> Value:
        return self.operand(2)


@register_operation("arith", "index_cast")
class IndexCastOp(Operation):
    """Cast between ``index`` and integer types."""

    __slots__ = ()

    def __init__(self, value: Value, result_type: Type):
        super().__init__("arith.index_cast", operands=[value], result_types=[result_type])


@register_operation("arith", "sitofp")
class SIToFPOp(Operation):
    """Convert a signed integer to floating point."""

    __slots__ = ()

    def __init__(self, value: Value, result_type: Type = f32):
        super().__init__("arith.sitofp", operands=[value], result_types=[result_type])


# -- helpers used throughout the transforms ---------------------------------------


def is_constant(value: Value) -> bool:
    """True if ``value`` is the result of an ``arith.constant``."""
    from repro.ir.value import OpResult

    return isinstance(value, OpResult) and value.owner.name == "arith.constant"


def constant_value(value: Value):
    """The Python value of an ``arith.constant`` result (or None)."""
    if not is_constant(value):
        return None
    return value.owner.get_attr("value")


def trunc_div(lhs: int, rhs: int) -> int:
    """``lhs / rhs`` as ``arith.divsi`` and C define it: the exact integer
    quotient, truncated toward zero (``//`` floors, and a quotient taken
    through floats is wrong beyond 2**53).  ``arith.remsi`` is
    ``lhs - rhs * trunc_div(lhs, rhs)``.  Raises :class:`ZeroDivisionError`
    for ``rhs == 0``."""
    quotient = abs(lhs) // abs(rhs)
    return quotient if (lhs < 0) == (rhs < 0) else -quotient


#: Set of arith operation names that are pure (freely CSE-able / DCE-able).
PURE_OPS = {
    "arith.constant", "arith.addf", "arith.subf", "arith.mulf", "arith.divf",
    "arith.addi", "arith.subi", "arith.muli", "arith.divsi", "arith.remsi",
    "arith.maxf", "arith.cmpi", "arith.cmpf", "arith.select",
    "arith.index_cast", "arith.sitofp",
}

"""A reference interpreter for loop-level IR.

The interpreter executes functions containing affine/scf control flow, memref
accesses and arith operations on NumPy arrays.  It exists for testing: a
transform is semantics-preserving exactly when the interpreted outputs before
and after the transform match.  (It is an executable specification, not a
fast simulator.)
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.dialects.arith import trunc_div
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.types import FloatType, IntegerType, MemRefType
from repro.ir.value import Value


class InterpreterError(Exception):
    """Raised when the interpreter meets an operation it cannot execute."""


class Interpreter:
    """Executes functions of a module on concrete NumPy values."""

    def __init__(self, module: Optional[ModuleOp] = None):
        self.module = module

    # -- public API ----------------------------------------------------------------------

    def run_function(self, func_op: Operation, arguments: Sequence) -> list:
        """Execute ``func_op`` with the given argument values.

        Array arguments are modified in place (matching HLS pointer
        semantics); the function's returned values are also returned.
        """
        block = func_op.region(0).front
        if len(arguments) != len(block.arguments):
            raise InterpreterError(
                f"expected {len(block.arguments)} arguments, got {len(arguments)}")
        environment: dict[Value, object] = {}
        for argument, value in zip(block.arguments, arguments):
            environment[argument] = value
        return self._run_block(block, environment)

    def run(self, func_name: str, arguments: Sequence) -> list:
        if self.module is None:
            raise InterpreterError("no module attached to the interpreter")
        func_op = self.module.lookup(func_name)
        if func_op is None:
            raise InterpreterError(f"function {func_name!r} not found")
        return self.run_function(func_op, arguments)

    # -- execution ------------------------------------------------------------------------

    def _run_block(self, block, environment: dict) -> list:
        for op in block.operations:
            result = self._run_op(op, environment)
            if op.name == "func.return":
                return result if result is not None else []
        return []

    def _run_op(self, op: Operation, environment: dict):
        name = op.name
        if name == "arith.constant":
            environment[op.result()] = op.get_attr("value")
        elif name in _BINARY_FUNCTIONS:
            lhs = environment[op.operand(0)]
            rhs = environment[op.operand(1)]
            environment[op.result()] = _BINARY_FUNCTIONS[name](lhs, rhs)
        elif name in ("arith.cmpi", "arith.cmpf"):
            lhs = environment[op.operand(0)]
            rhs = environment[op.operand(1)]
            environment[op.result()] = _CMP_FUNCTIONS[op.get_attr("predicate")](lhs, rhs)
        elif name == "arith.select":
            condition = environment[op.operand(0)]
            environment[op.result()] = (environment[op.operand(1)] if condition
                                        else environment[op.operand(2)])
        elif name in ("arith.index_cast",):
            environment[op.result()] = int(environment[op.operand(0)])
        elif name == "arith.sitofp":
            environment[op.result()] = float(environment[op.operand(0)])
        elif name == "memref.alloc":
            memref_type: MemRefType = op.result().type
            dtype = np.float32 if isinstance(memref_type.element_type, FloatType) else np.int64
            environment[op.result()] = np.zeros(memref_type.shape, dtype=dtype)
        elif name == "memref.dealloc":
            pass
        elif name == "memref.copy":
            environment[op.operand(1)][...] = environment[op.operand(0)]
        elif name in ("memref.load", "affine.load"):
            buffer, indices = self._resolve_access(op, environment)
            environment[op.result()] = buffer[indices]
        elif name in ("memref.store", "affine.store"):
            buffer, indices = self._resolve_access(op, environment)
            buffer[indices] = environment[op.operand(0)]
        elif name == "affine.apply":
            operands = [int(environment[v]) for v in op.operands]
            environment[op.result()] = op.get_attr("map").evaluate(operands)[0]
        elif name == "affine.for":
            self._run_affine_for(op, environment)
        elif name == "scf.for":
            self._run_scf_for(op, environment)
        elif name == "affine.if":
            self._run_affine_if(op, environment)
        elif name == "scf.if":
            branch = op.then_block if environment[op.operand(0)] else op.else_block
            if branch is not None:
                self._run_block(branch, environment)
        elif name == "func.call":
            self._run_call(op, environment)
        elif name == "func.return":
            return [environment[operand] for operand in op.operands]
        elif name in ("affine.yield", "scf.yield"):
            pass
        else:
            raise InterpreterError(f"cannot interpret operation {name!r}")
        return None

    def _resolve_access(self, op: Operation, environment: dict):
        if op.name in ("memref.load", "affine.load"):
            memref_value, index_values = op.operand(0), op.operands[1:]
        else:
            memref_value, index_values = op.operand(1), op.operands[2:]
        buffer = environment[memref_value]
        indices = [int(environment[value]) for value in index_values]
        access_map = op.get_attr("map")
        if access_map is not None:
            indices = list(access_map.evaluate(indices))
        memref_type: MemRefType = memref_value.type
        if access_map is not None and len(indices) != len(memref_type.shape):
            indices = indices[: len(memref_type.shape)]
        return buffer, tuple(indices)

    def _run_affine_for(self, op, environment: dict) -> None:
        lower_operands = [int(environment[v]) for v in op.lb_operands]
        upper_operands = [int(environment[v]) for v in op.ub_operands]
        lower = max(op.lower_map.evaluate(lower_operands))
        upper = min(op.upper_map.evaluate(upper_operands))
        for induction_value in range(lower, upper, op.step):
            environment[op.induction_variable] = induction_value
            self._run_block(op.body, environment)

    def _run_scf_for(self, op, environment: dict) -> None:
        lower = int(environment[op.operand(0)])
        upper = int(environment[op.operand(1)])
        step = int(environment[op.operand(2)])
        for induction_value in range(lower, upper, step):
            environment[op.induction_variable] = induction_value
            self._run_block(op.body, environment)

    def _run_affine_if(self, op, environment: dict) -> None:
        operands = [int(environment[v]) for v in op.operands]
        if op.condition.contains(operands):
            self._run_block(op.then_block, environment)
        elif op.else_block is not None:
            self._run_block(op.else_block, environment)

    def _run_call(self, op, environment: dict) -> None:
        if self.module is None:
            raise InterpreterError("cannot interpret func.call without a module")
        callee = self.module.lookup(op.get_attr("callee"))
        if callee is None:
            raise InterpreterError(f"callee {op.get_attr('callee')!r} not found")
        arguments = [environment[operand] for operand in op.operands]
        results = self.run_function(callee, arguments)
        for result_value, concrete in zip(op.results, results):
            environment[result_value] = concrete


_BINARY_FUNCTIONS = {
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b,
    "arith.maxf": lambda a, b: max(a, b),
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.divsi": trunc_div,
    "arith.remsi": lambda a, b: a - b * trunc_div(a, b),
}

_CMP_FUNCTIONS = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b, "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b, "sge": lambda a, b: a >= b,
    "olt": lambda a, b: a < b, "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b, "oge": lambda a, b: a >= b,
}


def interpret_kernel(module: ModuleOp, func_name: str, arrays: dict[str, np.ndarray],
                     scalars: Optional[dict[str, float]] = None) -> dict[str, np.ndarray]:
    """Convenience wrapper: run a C-front-end kernel on named arrays.

    ``arrays`` / ``scalars`` are keyed by the original C parameter names (the
    ``arg_names`` attribute recorded by the front-end).  Returns the array
    dictionary after execution (arrays are updated in place).
    """
    scalars = scalars or {}
    func_op = module.lookup(func_name)
    if func_op is None:
        raise InterpreterError(f"function {func_name!r} not found")
    names = func_op.get_attr("arg_names") or []
    arguments = []
    for position, argument in enumerate(func_op.region(0).front.arguments):
        name = names[position] if position < len(names) else f"arg{position}"
        if isinstance(argument.type, MemRefType):
            arguments.append(arrays[name])
        else:
            arguments.append(scalars.get(name, 0.0))
    Interpreter(module).run_function(func_op, arguments)
    return arrays

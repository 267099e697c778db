"""The ``-canonicalize`` pass: constant folding, dead-code elimination and
trivial loop simplifications.

ScaleHLS leans on MLIR's canonicalizer between its own transforms to remove
the redundancies they leave behind; this pass plays that role for the
reproduction.  The rewrites are expressed as :class:`RewritePattern` objects
applied by the greedy worklist driver, which — unlike the former full-module
fixpoint sweeps — only revisits operations whose operands actually changed:

* fold arithmetic on constants and ``affine.apply`` of constants,
* erase side-effect-free operations whose results are unused,
* erase zero-trip loops and promote single-iteration loops,
* erase empty ``affine.if`` operations.
"""

from __future__ import annotations

from typing import Optional

from repro.dialects import arith
from repro.dialects.affine_ops import AffineForOp, AffineIfOp
from repro.ir.operation import SIDE_EFFECT_OPS, Operation
from repro.ir.pass_manager import FunctionPass
from repro.ir.pass_registry import register_pass
from repro.ir.rewrite import (GreedyRewriteDriver, PatternRewriter, PatternSet,
                              RewritePattern)
from repro.ir.types import index
from repro.ir.value import OpResult


def canonicalize(root: Operation, max_iterations: int = 64) -> bool:
    """Canonicalize everything nested under ``root``.  Returns True if changed."""
    return GreedyRewriteDriver(_CANONICALIZATION,
                               max_iterations=max_iterations).rewrite(root)


def canonicalization_patterns() -> list[RewritePattern]:
    """A fresh set of the canonicalization patterns (driver-agnostic).

    The fold pattern is instantiated once per foldable operation name so the
    driver's per-name dispatch skips it entirely on loads, stores and other
    never-foldable ops.
    """
    patterns: list[RewritePattern] = [
        FoldConstantsPattern(name) for name in _FOLDABLE_NAMES]
    patterns += [SimplifyAffineForPattern(), EraseEmptyAffineIfPattern(),
                 EraseDeadOpPattern()]
    return patterns


@register_pass("canonicalize")
class CanonicalizePass(FunctionPass):
    """Pass wrapper around :func:`canonicalize`."""

    def run(self, op: Operation) -> None:
        canonicalize(op)


# -- folding ---------------------------------------------------------------------------


_FOLDABLE_INT = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.divsi": lambda a, b: arith.trunc_div(a, b) if b != 0 else None,
    "arith.remsi": lambda a, b: a - b * arith.trunc_div(a, b) if b != 0 else None,
}

_FOLDABLE_FLOAT = {
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b if b != 0 else None,
    "arith.maxf": max,
}

_CMP_FUNCS = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b, "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b, "sge": lambda a, b: a >= b,
    "olt": lambda a, b: a < b, "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b, "oge": lambda a, b: a >= b,
}

#: Every op name :func:`_try_fold` can possibly fold.
_FOLDABLE_NAMES = tuple(sorted(
    set(_FOLDABLE_INT) | set(_FOLDABLE_FLOAT)
    | {"arith.cmpi", "arith.cmpf", "affine.apply", "arith.select",
       "arith.index_cast"}))


class FoldConstantsPattern(RewritePattern):
    """Replace constant-operand arithmetic with a materialized constant."""

    benefit = 3

    def __init__(self, op_name: Optional[str] = None):
        self.op_name = op_name

    def may_match(self, op: Operation) -> bool:
        # Every foldable op needs a constant first operand; an apply of a
        # constant map has none at all.
        if not op._operands:
            return True
        first = op._operands[0].value
        return isinstance(first, OpResult) and first.operation.name == "arith.constant"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        folded = _try_fold(op)
        if folded is None:
            return False
        constant = rewriter.insert(arith.ConstantOp(folded, op.result().type))
        rewriter.replace_op(op, constant.result())
        return True


def _try_fold(op: Operation):
    if op.num_results != 1:
        return None
    if op.name in _FOLDABLE_INT or op.name in _FOLDABLE_FLOAT or op.name in (
            "arith.cmpi", "arith.cmpf"):
        values = [arith.constant_value(operand) for operand in op.operands]
        if any(value is None for value in values):
            return None
        if op.name in _FOLDABLE_INT:
            return _FOLDABLE_INT[op.name](int(values[0]), int(values[1]))
        if op.name in _FOLDABLE_FLOAT:
            return _FOLDABLE_FLOAT[op.name](float(values[0]), float(values[1]))
        predicate = op.get_attr("predicate")
        return 1 if _CMP_FUNCS[predicate](values[0], values[1]) else 0
    if op.name == "affine.apply":
        values = [arith.constant_value(operand) for operand in op.operands]
        if any(value is None for value in values):
            return None
        return op.get_attr("map").evaluate([int(v) for v in values])[0]
    if op.name == "arith.select":
        condition = arith.constant_value(op.operand(0))
        if condition is None:
            return None
        chosen = op.operand(1) if condition else op.operand(2)
        chosen_constant = arith.constant_value(chosen)
        return chosen_constant
    if op.name == "arith.index_cast":
        value = arith.constant_value(op.operand(0))
        return None if value is None else int(value)
    return None


# -- dead code ---------------------------------------------------------------------------


class EraseDeadOpPattern(RewritePattern):
    """Erase side-effect-free, region-free operations with no used results."""

    benefit = 1

    def may_match(self, op: Operation) -> bool:
        if op.regions or not op.results:
            return False
        for result in op.results:
            if result._uses:
                return False
        return True

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not is_dead(op):
            return False
        rewriter.erase_op(op)
        return True


def is_dead(op: Operation) -> bool:
    """What :class:`EraseDeadOpPattern` erases: a side-effect-free,
    region-free operation with results, none of them used."""
    if op.regions or not op.results or op.name in SIDE_EFFECT_OPS:
        return False
    for result in op.results:
        if result._uses:
            return False
    return True


def erase_dead_feeders(values) -> None:
    """Erase the op defining each of ``values`` when :func:`is_dead` holds
    it dead, and so on up its operands: what a pass that erased the users of
    ``values`` left for ``canonicalize``."""
    stack = list(values)
    while stack:
        value = stack.pop()
        if type(value) is not OpResult:
            continue
        op = value.operation
        if op.parent is None or not is_dead(op):
            continue
        stack.extend([use.value for use in op._operands])
        op.erase()


# -- loop simplifications --------------------------------------------------------------------


class SimplifyAffineForPattern(RewritePattern):
    """Erase zero-trip and empty loops; inline single-iteration loops."""

    op_name = "affine.for"
    benefit = 2

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not isinstance(op, AffineForOp):
            return False
        loop = op
        trip = loop.trip_count()
        if trip == 0:
            rewriter.remove_op(loop)
            return True
        if trip == 1 and loop.has_constant_lower_bound():
            block = loop.parent
            constant = rewriter.insert(
                arith.ConstantOp(loop.constant_lower_bound, index))
            rewriter.replace_all_uses(loop.induction_variable, constant.result())
            anchor = loop
            for inner in list(loop.body.operations):
                if inner.name == "affine.yield":
                    continue
                inner.detach()
                block.insert_after(anchor, inner)
                anchor = inner
                rewriter.enqueue(inner)
            rewriter.erase_op(loop)
            return True
        # Erase loops whose body is empty (e.g. after other simplifications).
        body_ops = [inner for inner in loop.body.operations
                    if inner.name != "affine.yield"]
        if not body_ops:
            rewriter.erase_op(loop)
            return True
        return False


class EraseEmptyAffineIfPattern(RewritePattern):
    """Erase result-less ``affine.if`` ops whose branches are both empty."""

    op_name = "affine.if"
    benefit = 2

    def may_match(self, op: Operation) -> bool:
        # An erasure that empties a branch re-enqueues ``op`` (the rewriter's
        # ``_notify_emptied``).
        return isinstance(op, AffineIfOp) and op.then_block.empty()

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not isinstance(op, AffineIfOp) or op.results:
            return False
        then_empty = op.then_block.empty()
        else_empty = op.else_block is None or op.else_block.empty()
        if then_empty and else_empty:
            rewriter.erase_op(op)
            return True
        return False


#: What every :func:`canonicalize` runs: its patterns keep no state, so the
#: process builds their dispatch once.
_CANONICALIZATION = PatternSet(canonicalization_patterns())

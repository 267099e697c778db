"""The ``-affine-loop-unroll`` pass.

Partial unrolling duplicates the loop body ``factor`` times (substituting
``iv + k*step`` for the induction variable) and multiplies the step; full
unrolling replaces the loop with one copy of the body per iteration, with the
induction variable replaced by a constant.  Full unrolling is the mechanism
behind both the intra-tile unrolling of the DSE flow and the pipeline
legalization of ``-loop-pipelining``.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.affine.expr import dim as dim_expr
from repro.affine.map import AffineMap
from repro.dialects import arith
from repro.dialects.affine_ops import AffineApplyOp, AffineForOp
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass, PassError, PassOption
from repro.ir.pass_registry import register_pass
from repro.ir.types import index


def unroll_loop(loop: AffineForOp, factor: int) -> Optional[list[Operation]]:
    """Unroll ``loop`` by ``factor``.

    Returns the list of operations that replaced the loop when it was fully
    unrolled, or None when the loop was partially unrolled in place.  The
    factor is clamped to the trip count; a factor that does not divide the
    trip count is reduced to the largest divisor (keeping the transform
    exact, as required for predictable QoR estimation).
    """
    if factor <= 1:
        return None
    trip = loop.trip_count()
    if trip is None:
        raise PassError("cannot unroll a loop with variable bounds")
    if trip == 0:
        return []
    factor = min(factor, trip)
    while trip % factor != 0:
        factor -= 1
    if factor == trip:
        return _fully_unroll(loop)
    _partially_unroll(loop, factor)
    return None


def fully_unroll(loop: AffineForOp) -> list[Operation]:
    """Fully unroll ``loop`` (which must have constant bounds)."""
    trip = loop.trip_count()
    if trip is None:
        raise PassError("cannot fully unroll a loop with variable bounds")
    return _fully_unroll(loop)


def fully_unroll_nested(root: Operation) -> int:
    """Fully unroll every ``affine.for`` nested inside ``root`` (post-order).

    ``root`` itself is not unrolled.  Returns the number of loops unrolled.
    """
    # One post-order snapshot suffices: inner loops are listed (and hence
    # unrolled) before their enclosing loops, so every loop is innermost by
    # the time it is reached — no per-loop subtree scan or re-sweep needed.
    # Loops the unrolling erases (the snapshotted inner loops) drop out via
    # the parent check; unrolled bodies are cloned loop-free.
    unrolled = 0
    for op in list(root.walk_post_order()):
        if op is root or not isinstance(op, AffineForOp) or op.parent is None:
            continue
        fully_unroll(op)
        unrolled += 1
    return unrolled


@register_pass("affine-loop-unroll", aliases=("loop-unroll",))
class AffineLoopUnrollPass(FunctionPass):
    """Unroll innermost loops by a fixed factor (Tab. II: ``unroll-factor``)."""

    OPTIONS = (PassOption("factor", type="int", attr="unroll_factor", default=4,
                          help="unroll factor applied to every innermost loop"),)

    def __init__(self, unroll_factor: int = 4):
        self.unroll_factor = unroll_factor

    def run(self, op: Operation) -> None:
        from repro.dialects.affine_ops import innermost_loops

        for loop in innermost_loops(op):
            if loop.parent is None:
                continue
            unroll_loop(loop, self.unroll_factor)


# -- implementation ------------------------------------------------------------------------


def _fully_unroll(loop: AffineForOp) -> list[Operation]:
    block = loop.parent
    lower = loop.constant_lower_bound
    upper = loop.constant_upper_bound
    step = loop.step
    new_ops: list[Operation] = []
    # Enclosing loops keep their bounds while this one unrolls, so what
    # _single_iteration_iv_value says of an operand holds for every copy.
    single_ivs: dict = {}
    for iteration_value in range(lower, upper, step):
        constant = arith.ConstantOp(iteration_value, index)
        new_ops.append(constant)
        value_map = {loop.induction_variable: constant.result()}
        for body_op in loop.body.operations:
            name = body_op.name
            if name == "affine.yield":
                continue
            if name == "affine.apply":
                # Fold now instead of cloning: the canonicalizer would fold
                # this apply anyway (its operands are constants after iv
                # substitution) by inserting a constant exactly here, so
                # emitting the constant directly produces byte-identical
                # post-canonicalize IR while skipping the clone, the fold
                # rewrite and the dead-apply erasure for every iteration.
                folded = _fold_cloned_apply(body_op, value_map, single_ivs)
                if folded is not None:
                    new_ops.append(folded)
                    continue
            new_ops.append(body_op.clone(value_map))
    block.insert_all_after(loop, new_ops)
    loop.erase()
    return new_ops


def _fold_cloned_apply(apply_op: Operation, value_map: dict,
                       single_ivs: dict) -> Optional[Operation]:
    """The constant an unrolled ``affine.apply`` clone folds to (or None).

    Returns a fresh ``arith.constant`` — and maps the apply's result to it —
    when every operand is constant under ``value_map``; chains across folds,
    so applies feeding applies collapse in one unrolling.  ``single_ivs``
    memoizes :func:`_single_iteration_iv_value` for the unrolling under way.
    """
    values = []
    for use in apply_op._operands:
        operand = value_map.get(use.value, use.value)
        value = arith.constant_value(operand)
        if value is None:
            if operand not in single_ivs:
                single_ivs[operand] = _single_iteration_iv_value(operand)
            value = single_ivs[operand]
            if value is None:
                return None
        values.append(int(value))
    folded = apply_op.get_attr("map").evaluate(values)[0]
    constant = arith.ConstantOp(folded, apply_op.result().type)
    value_map[apply_op.result()] = constant.result()
    return constant


def _single_iteration_iv_value(value) -> Optional[int]:
    """The only value a single-iteration loop's iv can take (or None).

    The canonicalizer substitutes exactly this constant when it promotes the
    trip-1 loop, so folding with it early cannot change the final IR.
    """
    from repro.ir.value import BlockArgument

    if not isinstance(value, BlockArgument):
        return None
    region = value.block.parent
    loop = region.parent if region is not None else None
    if not isinstance(loop, AffineForOp) or value is not loop.induction_variable:
        return None
    if loop.trip_count() == 1 and loop.has_constant_lower_bound():
        return loop.constant_lower_bound
    return None


def _partially_unroll(loop: AffineForOp, factor: int) -> None:
    step = loop.step
    original_ops = [op for op in loop.body.operations if op.name != "affine.yield"]
    iv = loop.induction_variable
    anchor = original_ops[-1] if original_ops else None
    for k in range(1, factor):
        offset_map = AffineMap(1, 0, [dim_expr(0) + k * step])
        apply_op = AffineApplyOp(offset_map, [iv])
        if anchor is None:
            loop.body.append(apply_op)
        else:
            loop.body.insert_after(anchor, apply_op)
        anchor = apply_op
        value_map = {iv: apply_op.result()}
        for body_op in original_ops:
            clone = body_op.clone(value_map)
            loop.body.insert_after(anchor, clone)
            anchor = clone
    loop.set_step(step * factor)

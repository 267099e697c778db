"""The ``-simplify-affine-if`` pass.

Eliminates dead branches of ``affine.if`` operations by bounding each
constraint over the iteration domain of the surrounding loops: a constraint
``expr >= 0`` whose minimum over the domain is non-negative always holds, and
one whose maximum is negative never holds (similarly for equalities).  Always
true conditionals are inlined; never-true conditionals are replaced by their
else region (or erased).

The verdict is :func:`repro.affine.analysis.condition_verdict` over
:func:`repro.dialects.affine_ops.index_value_range` of each operand, and
full unrolling asks the same two functions about every ``affine.if`` it is
about to copy (:mod:`repro.transforms.loop.loop_unroll`): a guard whose
operands the copy makes constant is decided there.  On the IR the kernel
and DNN flows build, nothing is left for this pass, so it is no longer part
of their cleanup tail (:data:`repro.dse.apply.CLEANUP_PIPELINE`); it stays
a registry pass for pipelines that need it — hand-written IR, a guard full
unrolling did not copy, ``--pipeline`` and ``--register-pipeline`` specs.
"""

from __future__ import annotations

from typing import Optional

from repro.affine.analysis import condition_verdict
from repro.dialects.affine_ops import AffineIfOp, index_value_range
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass
from repro.ir.pass_registry import register_pass
from repro.ir.rewrite import (GreedyRewriteDriver, PatternRewriter, PatternSet,
                              RewritePattern)


class SimplifyAffineIfPattern(RewritePattern):
    """Inline (or erase) ``affine.if`` ops whose condition is decidable."""

    op_name = "affine.if"
    benefit = 1

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not isinstance(op, AffineIfOp) or op.results:
            return False
        verdict = _evaluate_condition(op)
        if verdict is None:
            return False
        _inline_branch(op, take_then=verdict, rewriter=rewriter)
        return True


#: The pattern set every :func:`simplify_affine_ifs` runs, built once.
_SIMPLIFY_AFFINE_IF = PatternSet([SimplifyAffineIfPattern()])


def simplify_affine_ifs(root: Operation) -> int:
    """Simplify every ``affine.if`` nested under ``root``.  Returns #simplified."""
    driver = GreedyRewriteDriver(_SIMPLIFY_AFFINE_IF)
    driver.rewrite(root)
    # Each hit of the pattern is one simplified affine.if.
    return driver.pattern_stats.get(SimplifyAffineIfPattern.__name__, (0, 0))[0]


@register_pass("simplify-affine-if")
class SimplifyAffineIfPass(FunctionPass):
    """Pass wrapper around :func:`simplify_affine_ifs`."""

    def run(self, op: Operation) -> None:
        simplify_affine_ifs(op)


def _evaluate_condition(if_op: AffineIfOp) -> Optional[bool]:
    """True / False when the condition is decidable over the domain, else None."""
    ranges = []
    for operand in if_op.operands:
        value_range = index_value_range(operand)
        if value_range is None:
            return None
        ranges.append(value_range)
    return condition_verdict(if_op.condition, ranges)


def _inline_branch(if_op: AffineIfOp, take_then: bool,
                   rewriter: Optional[PatternRewriter] = None) -> None:
    block = if_op.parent
    source = if_op.then_block if take_then else if_op.else_block
    anchor = if_op
    if source is not None:
        for op in list(source.operations):
            if op.name == "affine.yield":
                continue
            op.detach()
            block.insert_after(anchor, op)
            anchor = op
            if rewriter is not None:
                rewriter.enqueue(op)
    if rewriter is not None:
        rewriter.erase_op(if_op)
    else:
        if_op.erase()

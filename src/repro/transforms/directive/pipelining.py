"""The ``-loop-pipelining`` and ``-func-pipelining`` passes.

A legal pipeline directive allows no hierarchy inside the target: before the
directive is attached, every loop nested in the target is fully unrolled and
every called sub-function is marked for pipelining.  Perfectly nested parent
loops of a pipelined loop are annotated with ``flatten`` so the estimator and
the emitter treat them as a single flattened loop nest (paper Section V-C1).
"""

from __future__ import annotations

from typing import Optional

from repro.dialects.affine_ops import AffineForOp, innermost_loops
from repro.dialects.hlscpp import (
    FuncDirective,
    LoopDirective,
    ensure_func_directive,
    ensure_loop_directive,
)
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass, PassError, PassOption
from repro.ir.pass_registry import register_pass
from repro.transforms.loop.loop_unroll import fully_unroll_nested


def pipeline_loop(loop: AffineForOp, target_ii: int = 1) -> int:
    """Legalize and pipeline ``loop`` with the given target II.

    Returns the number of nested loops that were fully unrolled during
    legalization.  Raises :class:`PassError` when a nested loop has variable
    bounds (the target cannot be legalized, mirroring the diagnostics the
    paper describes).
    """
    try:
        # Checks every nested loop before it touches the IR.
        unrolled = fully_unroll_nested(loop)
    except PassError:
        raise PassError("cannot pipeline: a nested loop has variable bounds "
                        "(run -remove-variable-bound first)") from None

    directive = ensure_loop_directive(loop)
    directive.pipeline = True
    directive.target_ii = max(1, int(target_ii))

    _flatten_perfect_parents(loop)
    return unrolled


def pipeline_function(func_op: Operation, target_ii: int = 1) -> int:
    """Legalize and pipeline a whole function (all loops fully unrolled)."""
    try:
        unrolled = fully_unroll_nested(func_op)
    except PassError:
        raise PassError("cannot pipeline a function containing "
                        "variable-bound loops") from None
    directive = ensure_func_directive(func_op)
    directive.pipeline = True
    directive.target_ii = max(1, int(target_ii))
    return unrolled


@register_pass("loop-pipelining", aliases=("pipeline",))
class LoopPipeliningPass(FunctionPass):
    """Pipeline every innermost loop of a function with a fixed target II."""

    OPTIONS = (PassOption("ii", type="int", attr="target_ii", default=1,
                          help="target initiation interval"),)

    def __init__(self, target_ii: int = 1):
        self.target_ii = target_ii

    def run(self, op: Operation) -> None:
        for loop in innermost_loops(op):
            if loop.parent is None:
                continue
            try:
                pipeline_loop(loop, self.target_ii)
            except PassError:
                continue


@register_pass("func-pipelining")
class FuncPipeliningPass(FunctionPass):
    """Pipeline entire functions (Tab. II: ``-func-pipelining``)."""

    OPTIONS = (
        PassOption("ii", type="int", attr="target_ii", default=1,
                   help="target initiation interval"),
        PassOption("only-named", type="str", attr="only_named", default=None,
                   help="restrict to the function with this sym_name"),
    )

    def __init__(self, target_ii: int = 1, only_named: Optional[str] = None):
        self.target_ii = target_ii
        self.only_named = only_named

    def run(self, op: Operation) -> None:
        if self.only_named is not None and op.get_attr("sym_name") != self.only_named:
            return
        try:
            pipeline_function(op, self.target_ii)
        except PassError:
            return


def _flatten_perfect_parents(loop: AffineForOp) -> None:
    """Mark perfectly nested ancestors of a pipelined loop with ``flatten``."""
    child: Operation = loop
    parent = child.parent_op
    while isinstance(parent, AffineForOp):
        body_ops = [op for op in parent.body.operations if op.name != "affine.yield"]
        if len(body_ops) != 1 or body_ops[0] is not child:
            break
        directive = ensure_loop_directive(parent)
        directive.flatten = True
        directive.pipeline = False
        child = parent
        parent = child.parent_op

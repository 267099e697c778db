"""The ``-cse`` pass: common-subexpression elimination for pure operations.

Two operations are equivalent when they have the same name, the same operand
values and the same attributes; the later one is replaced by the earlier one.
Only side-effect-free, region-free operations within the same block are
considered (memory accesses are handled by ``-simplify-memref-access``).
"""

from __future__ import annotations

from repro.dialects.arith import PURE_OPS
from repro.ir.block import Block
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass
from repro.ir.pass_registry import register_pass
from repro.ir.traversal import scan_blocks

#: Additional pure operations outside the arith dialect.
_EXTRA_PURE = {"affine.apply"}

#: Every op name the scan considers, resolved once (the scan's dispatch
#: bucket — one frozenset membership test per op instead of two).
_CSE_NAMES = frozenset(PURE_OPS) | frozenset(_EXTRA_PURE)


def eliminate_common_subexpressions(root: Operation) -> int:
    """Run CSE on every block nested under ``root``.  Returns #ops removed."""
    return scan_blocks(root, _cse_block, "CSEScanPattern")


@register_pass("cse")
class CSEPass(FunctionPass):
    """Pass wrapper around :func:`eliminate_common_subexpressions`."""

    def run(self, op: Operation) -> None:
        eliminate_common_subexpressions(op)


def _cse_block(block: Block) -> int:
    removed = 0
    seen: dict[tuple, Operation] = {}
    for op in list(block.operations):
        if op.parent is not block:
            continue
        if op.name not in _CSE_NAMES:
            continue
        if op.regions or op.num_results != 1:
            continue
        key = _op_key(op)
        if key in seen:
            op.result().replace_all_uses_with(seen[key].result())
            op.erase()
            removed += 1
        else:
            seen[key] = op
    return removed


def _op_key(op: Operation) -> tuple:
    attrs = tuple(sorted((k, _hashable(v)) for k, v in op.attributes.items()))
    return (op.name, tuple(id(operand) for operand in op.operands), attrs)


def _hashable(value):
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)

"""Traversal and def-use utilities shared by passes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.ir.value import BlockArgument, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.block import Block
    from repro.ir.operation import Operation


def walk(op: "Operation", callback: Callable[["Operation"], None]) -> None:
    """Apply ``callback`` to ``op`` and every nested operation (pre-order)."""
    for nested in op.walk():
        callback(nested)


def collect(op: "Operation", predicate: Callable[["Operation"], bool]) -> list["Operation"]:
    """All nested operations (including ``op``) satisfying ``predicate``."""
    return [nested for nested in op.walk() if predicate(nested)]


def scan_blocks(root: "Operation", scan: Callable[["Block"], int],
                name: str) -> int:
    """Run a linear per-block analysis once on every block under ``root``.

    ``scan(block)`` rewrites one block and returns how many rewrites it
    applied; blocks are visited in pre-order of their parent operations (the
    order ``root.walk()`` meets them), enumerated before the first scan by
    descending only into operations that hold regions (scans erase only the
    region-free ops they fold).
    Returns the sum, and reports it to the metrics registry as
    ``pattern.<name>.hits`` beside ``pattern.<name>.misses``, the number of
    blocks that yielded nothing.  The one place the cleanup scans (``cse``,
    ``affine-store-forward``, ``simplify-memref-access``) meet the IR.
    """
    blocks: list["Block"] = []
    stack = [root]
    while stack:
        holders: list["Operation"] = []
        for region in stack.pop().regions:
            for block in region.blocks:
                blocks.append(block)
                holders.extend([op for op in block.operations if op.regions])
        holders.reverse()
        stack.extend(holders)
    hits = misses = 0
    for block in blocks:
        applied = scan(block)
        if applied:
            hits += applied
        else:
            misses += 1
    obs.add_pattern_stats({name: (hits, misses)}, {})
    return hits


def values_defined_above(block: "Block") -> set[Value]:
    """Values visible inside ``block`` that are defined outside of it.

    Walks backwards from each enclosing anchor over the intrusive ``_prev``
    links, so exactly the operations *before* the anchor are visited — the
    seed implementation scanned every enclosing block from the front,
    identity-comparing its way to the anchor.  For membership tests of a few
    known values prefer :func:`is_defined_above`, which answers in
    O(nesting depth) without materializing this set at all.
    """
    visible: set[Value] = set()
    parent_op = block.parent_op
    while parent_op is not None:
        enclosing = parent_op.parent
        if enclosing is None:
            break
        visible.update(enclosing.arguments)
        op = parent_op.prev_op
        while op is not None:
            visible.update(op.results)
            op = op.prev_op
        parent_op = enclosing.parent_op
    return visible


def is_defined_above(value: Value, block: "Block") -> bool:
    """True when ``value`` is visible inside ``block`` but defined outside it.

    The order-key fast path of :func:`values_defined_above`: walk the
    enclosing blocks up to the value's defining block and make one O(1)
    ``is_before_in_block`` comparison there — O(nesting depth) total,
    independent of how many operations the enclosing blocks hold.
    """
    defining_block = value.owner if isinstance(value, BlockArgument) \
        else value.owner.parent
    if defining_block is None or defining_block is block:
        return False
    ancestor = block.parent_op
    current = ancestor.parent if ancestor is not None else None
    while current is not None:
        if current is defining_block:
            if isinstance(value, BlockArgument):
                return True
            definer = value.owner
            return definer is not ancestor and definer.is_before_in_block(ancestor)
        parent_op = current.parent_op
        if parent_op is None:
            return False
        ancestor = parent_op
        current = parent_op.parent
    return False

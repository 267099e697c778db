"""A flat, non-recursive encoding of an IR tree: what pickling IR writes.

Pickle's own traversal of the linked IR recurses once per object it meets
first: an operation leads to its block, the block to its operations, a
value to the owners of its uses, and those to their blocks in turn, so a
deep or densely used design exhausts the recursion limit long before it
is large.  :func:`encode` writes the tree an operation roots as two flat
lists instead, and :func:`decode` rebuilds it with loops:

* ``records``: the operations in pre-order, each
  ``(class, name, attributes, attributes shared, operand count, result
  types, regions)``, where ``regions`` holds per region one
  ``(argument types, operation count)`` pair per block: the counts say
  which of the records that follow are the block's operations (each with
  its own nested records after it);
* ``uses``: per value, in definition order (an operation's results, then
  its blocks' arguments, region by region), the flat
  ``(operation, operand, operation, operand, ...)`` indices of its uses in
  registration order.  Operands are rebuilt from these, so every use list
  keeps its order exactly: a pool worker must see the use order the
  coordinator sees for bit-identical evaluation.

A use whose owner is not part of the tree (an operation detached without
dropping its operands) is not encoded, as cloning does not copy it either;
an operand defined outside the tree cannot be encoded at all
(``ValueError``).  Attribute dictionaries are encoded as they are, so an
encoding is meant to be pickled: :func:`decode` adopts the dictionaries it
is given.  Operations pickle through this encoding
(:meth:`~repro.ir.operation.Operation.__reduce__`), and so does a DSE
design (:class:`~repro.dse.apply.AppliedDesign`), which names its function
and pipelined loop by their :func:`encode` indices.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Optional

from repro.ir.block import Block
from repro.ir.region import Region
from repro.ir.value import OpResult, Use

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.operation import Operation

_intern = sys.intern


def encode(root: "Operation", *marked: Optional["Operation"]
           ) -> tuple[tuple[list, list], tuple[Optional[int], ...]]:
    """The encoding of the tree ``root`` roots, and the pre-order index of
    each operation of ``marked`` in it (None for None or for an operation
    outside the tree)."""
    ops = []
    index: dict[int, int] = {}
    records = []
    values = []
    stack = [root]
    while stack:
        op = stack.pop()
        index[id(op)] = len(ops)
        ops.append(op)
        results = op.results
        values += results
        regions = ()
        if op.regions:
            regions = []
            children = []
            for region in op.regions:
                blocks = []
                for block in region.blocks:
                    arguments = block.arguments
                    values += arguments
                    blocks.append((tuple([arg.type for arg in arguments]),
                                   block._num_ops))
                    children += block.operations
                regions.append(tuple(blocks))
            children.reverse()
            stack += children
        records.append((type(op), op.name, op._attributes, op._attrs_shared,
                        len(op._operands),
                        tuple([result.type for result in results]),
                        tuple(regions)))
    uses = []
    encoded_uses = 0
    for value in values:
        flat = []
        for use in value._uses.values():
            owner = index.get(id(use.owner))
            # A stale entry (the operand slot holds another use) is dropped.
            if owner is not None and ops[owner]._operands[use.index] is use:
                flat += (owner, use.index)
        encoded_uses += len(flat)
        uses.append(tuple(flat))
    if encoded_uses != 2 * sum(record[4] for record in records):
        raise ValueError(f"cannot encode {root.name}: an operand of its tree "
                         f"is defined outside it")
    return (records, uses), tuple(
        None if op is None else index.get(id(op)) for op in marked)


def decode(encoding: tuple[list, list]) -> list["Operation"]:
    """The operations of a tree :func:`encode` wrote, rebuilt, in pre-order:
    the first one is the root."""
    records, uses = encoding
    ops = []
    values = []
    #: ``[block, operations still to come]``, innermost last.
    frames: list[list] = []
    new = object.__new__
    for cls, name, attributes, shared, operands, types, regions in records:
        op = new(cls)
        op.name = _intern(name)
        op._attributes = attributes
        op._attrs_shared = shared
        op.parent = op._prev = op._next = None
        op._order = 0
        op._operands = [None] * operands
        op.results = results = [OpResult(result_type, op, position)
                                for position, result_type in enumerate(types)]
        values += results
        op.regions = []
        while frames and not frames[-1][1]:
            frames.pop()
        if frames:
            frame = frames[-1]
            frame[0].append(op)
            frame[1] -= 1
        if regions:
            opened = []
            for blocks in regions:
                region = Region(op)
                op.regions.append(region)
                for argument_types, count in blocks:
                    block = region.add_block(Block(argument_types))
                    values += block.arguments
                    opened.append([block, count])
            opened.reverse()
            frames += opened
        ops.append(op)
    for value, flat in zip(values, uses):
        if flat:
            registry = value._uses
            for position in range(0, len(flat), 2):
                owner = ops[flat[position]]
                operand = flat[position + 1]
                use = Use(value, owner, operand)
                registry[id(use)] = use
                owner._operands[operand] = use
    return ops


def decode_root(encoding: tuple[list, list]) -> "Operation":
    """The root of a tree :func:`encode` wrote, rebuilt (what unpickling an
    operation calls)."""
    return decode(encoding)[0]

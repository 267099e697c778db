"""The ``-cse`` pass: common-subexpression elimination for pure operations.

Two operations are equivalent when they have the same name, the same operand
values, the same attributes and the same result type (``0 : index`` and
``0.0 : f32`` compare equal as attributes); the later one is replaced by the
earlier one.
Only side-effect-free, region-free operations within the same block are
considered (memory accesses are handled by ``-simplify-memref-access``).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.dialects.arith import PURE_OPS
from repro.ir.block import Block
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass
from repro.ir.pass_registry import register_pass
from repro.ir.traversal import scan_blocks
from repro.ir.value import OpResult, Value

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
    for op in merge_duplicates(block.operations):
        op.erase()
        removed += 1
    return removed


def merge_duplicates(ops: Iterable[Operation]) -> Iterator[Operation]:
    """Merge every op of ``ops`` (one block's, in order) that an earlier one
    is equivalent to into that earlier one, the first survivor: the uses of
    its result move onto the survivor's, in registration order.  Yields each
    op merged, with its own operand uses still registered; the caller drops
    them (erases it) before the next one is judged."""
    seen: dict[tuple, Operation] = {}
    rendered: dict[int, tuple[dict, tuple]] = {}
    for op in ops:
        name = op.name
        if name not in _CSE_NAMES or op.regions or len(op.results) != 1:
            continue
        key = (name, tuple([id(use.value) for use in op._operands]),
               _attributes_key(op._attributes, rendered), op.results[0].type)
        earlier = seen.get(key)
        if earlier is None:
            seen[key] = op
        else:
            op.results[0].replace_all_uses_with(earlier.results[0])
            yield op


def _attributes_key(attributes: dict, rendered: dict) -> tuple:
    """The hashable form of an attribute dict.  ``rendered`` keeps each
    dict met with its form, so its id stays taken: unrolled clones share
    one dict, rendered once."""
    if not attributes:
        return ()
    entry = rendered.get(id(attributes))
    if entry is None:
        entry = rendered[id(attributes)] = (attributes, tuple(sorted(
            [(k, _hashable(v)) for k, v in attributes.items()])))
    return entry[1]


#: The ops whose result a block scan may replace (forward or merge).
_LOADS = frozenset({"affine.load", "memref.load"})


class ValueNumbers:
    """Which values the next ``-cse`` leaves one value.

    :meth:`number` of a value is equal for two values
    exactly when they are one value or the results of two ops ``-cse``
    merges: ops it considers, in one block, with the same name, attributes,
    result type and operand numbers.  The block scans key an address by the
    numbers of its operands (:func:`repro.transforms.cleanup.store_forward.
    access_key`), so an access whose indices only ``-cse`` makes the same
    values meets its equal in the same round, not in a second one.

    A number is kept for the rest of the scan (in :attr:`known`, which
    callers read first) unless a load's result went into it: a scan may
    replace that result, and what uses it is numbered again each time it is
    asked for.
    """

    __slots__ = ("known", "_first", "_rendered")

    def __init__(self) -> None:
        #: ``id(value)`` -> number, for the numbers that are kept.
        self.known: dict[int, int] = {}
        self._first: dict[tuple, int] = {}
        self._rendered: dict[int, tuple[dict, tuple]] = {}

    def number(self, value: Value) -> int:
        """The number of ``value``."""
        return self._number(value)[0]

    def _number(self, value: Value) -> tuple[int, bool]:
        """``(number, kept)`` of ``value``."""
        number = self.known.get(id(value))
        if number is not None:
            return number, True
        op = value.operation if type(value) is OpResult else None
        if op is None or op.name not in _CSE_NAMES or op.regions \
                or len(op.results) != 1:
            number, kept = id(value), op is None or op.name not in _LOADS
        else:
            operands, kept = [], True
            for use in op._operands:
                operand, operand_kept = self._number(use.value)
                operands.append(operand)
                kept = kept and operand_kept
            number = self._first.setdefault(
                (op.name, tuple(operands),
                 _attributes_key(op._attributes, self._rendered), value.type,
                 id(op.parent)),
                id(value))
        if kept:
            self.known[id(value)] = number
        return number, kept


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

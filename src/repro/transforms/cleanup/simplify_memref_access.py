"""The ``-simplify-memref-access`` pass.

Folds identical memory accesses when no dependency conflict exists:

* a load whose address matches an earlier load in the same block, with no
  potentially conflicting store in between, reuses the earlier result;
* a store that is overwritten by a later store to the same address, with no
  intervening load of the buffer, is removed as dead, and with it the
  side-effect-free operations that computed only what it stored.

Two addresses are the same when their index values are ones ``-cse`` leaves
one value (:class:`~repro.transforms.cleanup.cse.ValueNumbers`): a load
whose indices only the ``cse`` after this pass merges still folds here.
"""

from __future__ import annotations

from repro.ir.block import Block
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass
from repro.ir.pass_registry import register_pass
from repro.ir.traversal import scan_blocks
from repro.transforms.cleanup.canonicalize import erase_dead_feeders
from repro.transforms.cleanup.cse import ValueNumbers
from repro.transforms.cleanup.store_forward import (
    ACCESS_OPS,
    CLOBBER_OPS,
    STORE_OPS,
    access_key,
    touched_memrefs,
)


def simplify_memref_accesses(root: Operation) -> int:
    """Fold redundant accesses under ``root``.  Returns the number of
    accesses removed."""
    numbers = ValueNumbers()
    return scan_blocks(root, lambda block: _simplify_in_block(block, numbers),
                       "MemrefAccessScanPattern")


@register_pass("simplify-memref-access")
class SimplifyMemrefAccessPass(FunctionPass):
    """Pass wrapper around :func:`simplify_memref_accesses`."""

    def run(self, op: Operation) -> None:
        simplify_memref_accesses(op)


def _simplify_in_block(block: Block, numbers: ValueNumbers) -> int:
    """Fold repeated loads and remove dead stores in one forward scan.

    Both rules look only backwards, and folding a load rewrites only
    operations after it, so each op is judged on operands that are already
    final.  A folded load had a surviving load of its buffer before it with
    no store in between, which already made every pending store observable:
    skipping it changes nothing for the stores.  What fed only a removed
    store is erased after the scan: a load among it may still be the one a
    later load folds into.
    """
    removed = 0
    # Available loads and pending (not yet observable) stores per exact
    # address, bucketed by buffer: a may-alias access of the buffer (or a
    # region op touching it) invalidates the bucket with one O(1) pop.
    available: dict[int, dict[tuple, Operation]] = {}
    pending: dict[int, dict[tuple, Operation]] = {}
    overwritten: list = []
    for op in block.operations:
        name = op.name
        if name not in ACCESS_OPS:
            # Walked only when there is something to forget: the outer
            # blocks of a loop nest hold no access before the nested loop.
            if (op.regions or name in CLOBBER_OPS) and (available or pending):
                for memref_id in touched_memrefs(op):
                    available.pop(memref_id, None)
                    pending.pop(memref_id, None)
        elif name in STORE_OPS:
            memref_id = id(op._operands[1].value)
            available.pop(memref_id, None)
            key = access_key(op, 1, numbers)
            stores = pending.get(memref_id)
            if stores is None:
                pending[memref_id] = {key: op}
            else:
                earlier = stores.get(key)
                if earlier is not None:
                    overwritten.append(earlier._operands[0].value)
                    earlier.erase()
                    removed += 1
                stores[key] = op
        else:
            memref_id = id(op._operands[0].value)
            # A load of the buffer makes every pending store to it observable.
            pending.pop(memref_id, None)
            key = access_key(op, 0, numbers)
            loads = available.get(memref_id)
            if loads is None:
                available[memref_id] = {key: op}
            else:
                earlier = loads.get(key)
                if earlier is None:
                    loads[key] = op
                else:
                    op.results[0].replace_all_uses_with(earlier.results[0])
                    op.erase()
                    removed += 1
    erase_dead_feeders(overwritten)
    return removed

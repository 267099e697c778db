"""The ``-simplify-memref-access`` pass.

Folds identical memory accesses when no dependency conflict exists:

* a load whose address matches an earlier load in the same block, with no
  potentially conflicting store in between, reuses the earlier result;
* a store that is overwritten by a later store to the same address, with no
  intervening load of the buffer, is removed as dead.
"""

from __future__ import annotations

from repro.dialects.affine_ops import access_is_write, access_memref
from repro.ir.block import Block
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass
from repro.ir.pass_registry import register_pass
from repro.ir.traversal import scan_blocks
from repro.transforms.cleanup.store_forward import ACCESS_OPS, access_key


def simplify_memref_accesses(root: Operation) -> int:
    """Fold redundant accesses under ``root``.  Returns the number of ops removed."""
    return scan_blocks(
        root, lambda block: _fold_loads(block) + _remove_dead_stores(block),
        "MemrefAccessScanPattern")


@register_pass("simplify-memref-access")
class SimplifyMemrefAccessPass(FunctionPass):
    """Pass wrapper around :func:`simplify_memref_accesses`."""

    def run(self, op: Operation) -> None:
        simplify_memref_accesses(op)


def _touched_memrefs(op: Operation) -> set[int]:
    return {id(access_memref(inner)) for inner in op.walk() if inner.name in ACCESS_OPS}


def _fold_loads(block: Block) -> int:
    removed = 0
    # Available loads per exact address, bucketed by buffer: a store (or a
    # region op touching the buffer) invalidates its bucket with one O(1)
    # pop instead of rebuilding the whole map per write — the seed rebuild
    # was quadratic on exactly the unrolled load/store streams this pass
    # exists to clean up.
    available: dict[int, dict[tuple, Operation]] = {}
    for op in list(block.operations):
        if op.parent is not block:
            continue
        if op.name not in ACCESS_OPS:
            if op.regions:
                for memref_id in _touched_memrefs(op):
                    available.pop(memref_id, None)
            continue
        memref_id = id(access_memref(op))
        if access_is_write(op):
            available.pop(memref_id, None)
            continue
        key = access_key(op)
        loads = available.get(memref_id)
        if loads is None:
            loads = available[memref_id] = {}
        earlier = loads.get(key)
        if earlier is not None:
            op.result().replace_all_uses_with(earlier.result())
            op.erase()
            removed += 1
        else:
            loads[key] = op
    return removed


def _remove_dead_stores(block: Block) -> int:
    removed = 0
    # Pending (not-yet-observable) stores per exact address, bucketed by
    # buffer — same O(1) invalidation story as _fold_loads.
    pending: dict[int, dict[tuple, Operation]] = {}
    for op in list(block.operations):
        if op.parent is not block:
            continue
        if op.name not in ACCESS_OPS:
            if op.regions:
                for memref_id in _touched_memrefs(op):
                    pending.pop(memref_id, None)
            continue
        memref_id = id(access_memref(op))
        if access_is_write(op):
            key = access_key(op)
            stores = pending.get(memref_id)
            if stores is None:
                stores = pending[memref_id] = {}
            earlier = stores.get(key)
            if earlier is not None:
                earlier.erase()
                removed += 1
            stores[key] = op
        else:
            # A load of the buffer makes every pending store to it observable.
            pending.pop(memref_id, None)
    return removed

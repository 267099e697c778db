"""The ``-affine-store-forward`` pass.

Performs store-to-load forwarding inside straight-line blocks: a load whose
address matches a dominating store in the same block (with no potentially
conflicting store in between) is replaced by the stored value.  The pass also
removes buffers that end up write-only (every user is a store), which is how
"unused memory instances" disappear after forwarding.
"""

from __future__ import annotations

from repro.dialects.affine_ops import access_indices, access_is_write, access_memref
from repro.ir.block import Block
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass
from repro.ir.pass_registry import register_pass
from repro.ir.traversal import scan_blocks

#: The memory-access op names the block scans dispatch on (shared with
#: ``simplify-memref-access``).
ACCESS_OPS = frozenset({"affine.load", "affine.store",
                        "memref.load", "memref.store"})


def forward_stores(root: Operation) -> int:
    """Forward stores to loads under ``root``.  Returns the number of forwards."""
    return scan_blocks(root, _forward_in_block, "StoreForwardScanPattern") \
        + _remove_write_only_buffers(root)


@register_pass("affine-store-forward")
class AffineStoreForwardPass(FunctionPass):
    """Pass wrapper around :func:`forward_stores`."""

    def run(self, op: Operation) -> None:
        forward_stores(op)


def access_key(op: Operation) -> tuple:
    """Hashable address identity of an access (memref, index values, access map)."""
    memref = access_memref(op)
    indices = tuple(id(v) for v in access_indices(op))
    access_map = op.get_attr("map")
    return (id(memref), indices, str(access_map) if access_map is not None else None)


def _forward_in_block(block: Block) -> int:
    forwarded = 0
    # Last store per exact address, bucketed by buffer so a store's
    # may-alias invalidation is one O(1) bucket replacement instead of a
    # rebuild of the whole map (quadratic on unrolled store streams).
    last_store: dict[int, dict[tuple, Operation]] = {}
    for op in list(block.operations):
        if op.parent is not block or op.name not in ACCESS_OPS:
            # Region-holding ops (loops, ifs) may touch memory: be conservative.
            if op.regions:
                for inner in op.walk():
                    if inner.name in ACCESS_OPS:
                        last_store.pop(id(access_memref(inner)), None)
            continue
        if access_is_write(op):
            key = access_key(op)
            # A store may alias any other address of the same buffer: only
            # this exact address survives, now defined by this store.
            last_store[id(access_memref(op))] = {key: op}
        else:
            key = access_key(op)
            stores = last_store.get(id(access_memref(op)))
            store = stores.get(key) if stores else None
            if store is not None:
                stored_value = store.operand(0)
                op.result().replace_all_uses_with(stored_value)
                op.erase()
                forwarded += 1
    return forwarded


def _remove_write_only_buffers(root: Operation) -> int:
    removed = 0
    for op in list(root.walk()):
        if op.name != "memref.alloc" or op.parent is None:
            continue
        users = [use.owner for use in op.result().uses]
        if not users:
            op.erase()
            removed += 1
            continue
        if all(user.name in ("affine.store", "memref.store", "memref.dealloc")
               and (user.name == "memref.dealloc" or access_memref(user) is op.result())
               for user in users):
            for user in list(users):
                user.erase()
            op.erase()
            removed += 1
    return removed

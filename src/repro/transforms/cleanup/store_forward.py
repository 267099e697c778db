"""The ``-affine-store-forward`` pass.

Performs store-to-load forwarding inside straight-line blocks: a load whose
address matches a dominating store in the same block (with no potentially
conflicting store in between) is replaced by the stored value.  Two
addresses match when their index values are ones ``-cse`` leaves one value
(:class:`~repro.transforms.cleanup.cse.ValueNumbers`).  The pass also
removes buffers that end up write-only (every user is a store), which is how
"unused memory instances" disappear after forwarding, and with their stores
the side-effect-free operations that computed only what was stored.
"""

from __future__ import annotations

from repro.ir.block import Block
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass
from repro.ir.pass_registry import register_pass
from repro.ir.traversal import scan_blocks
from repro.ir.types import MemRefType
from repro.transforms.cleanup.canonicalize import erase_dead_feeders
from repro.transforms.cleanup.cse import ValueNumbers

#: The memory-access op names the block scans dispatch on (shared with
#: ``simplify-memref-access``).
ACCESS_OPS = frozenset({"affine.load", "affine.store",
                        "memref.load", "memref.store"})

#: The accesses that write.  Their operands are (value, memref, *indices);
#: a load's are (memref, *indices).
STORE_OPS = frozenset({"affine.store", "memref.store"})

#: Ops that are not accesses yet may read or write any buffer they are
#: handed: a scan that meets one forgets what it knew about those buffers.
CLOBBER_OPS = frozenset({"memref.copy", "func.call", "memref.dealloc"})


def forward_stores(root: Operation) -> int:
    """Forward stores to loads under ``root``.  Returns the number of forwards."""
    allocs: list[Operation] = []
    numbers = ValueNumbers()
    forwarded = scan_blocks(
        root, lambda block: _forward_in_block(block, allocs, numbers),
        "StoreForwardScanPattern")
    return forwarded + _remove_write_only_buffers(allocs)


@register_pass("affine-store-forward")
class AffineStoreForwardPass(FunctionPass):
    """Pass wrapper around :func:`forward_stores`."""

    def run(self, op: Operation) -> None:
        forward_stores(op)


def access_key(op: Operation, memref_slot: int, numbers: ValueNumbers) -> tuple:
    """Hashable address identity of an access within its buffer (the scans
    keep one table per buffer): the ``numbers`` of its index values (the
    operands after ``memref_slot``) and its access map."""
    known, access_map = numbers.known.get, op._attributes.get("map")
    return (tuple([known(id(use.value)) or numbers.number(use.value)
                   for use in op._operands[memref_slot + 1:]]),
            str(access_map) if access_map is not None else None)


def touched_memrefs(op: Operation) -> set[int]:
    """The ``id`` of every buffer that ``op``, a region holder or one of
    :data:`CLOBBER_OPS`, may read or write, nested operations included."""
    touched: set[int] = set()
    for inner in op.walk():
        name = inner.name
        if name in ACCESS_OPS:
            touched.add(id(inner._operands[1 if name in STORE_OPS else 0].value))
        elif name in CLOBBER_OPS:
            touched.update(id(use.value) for use in inner._operands
                           if isinstance(use.value.type, MemRefType))
    return touched


def _forward_in_block(block: Block, allocs: list[Operation],
                      numbers: ValueNumbers) -> int:
    """Forward within ``block``; every ``memref.alloc`` passed on the way is
    appended to ``allocs``."""
    forwarded = 0
    # The last store per buffer and its address.  A store may alias any
    # other address of the same buffer, so only the latest one survives.
    last_store: dict[int, tuple[tuple, Operation]] = {}
    for op in block.operations:
        name = op.name
        if name not in ACCESS_OPS:
            if op.regions or name in CLOBBER_OPS:
                # Walked only when there is something to forget: the outer
                # blocks of a loop nest hold no store before the nested loop.
                if last_store:
                    for memref_id in touched_memrefs(op):
                        last_store.pop(memref_id, None)
            elif name == "memref.alloc":
                allocs.append(op)
        elif name in STORE_OPS:
            last_store[id(op._operands[1].value)] = (access_key(op, 1, numbers), op)
        else:
            store = last_store.get(id(op._operands[0].value))
            if store is not None and store[0] == access_key(op, 0, numbers):
                op.results[0].replace_all_uses_with(store[1]._operands[0].value)
                op.erase()
                forwarded += 1
    return forwarded


def _remove_write_only_buffers(allocs: list[Operation]) -> int:
    removed = 0
    for op in allocs:
        buffer = op.results[0]
        users = [use.owner for use in buffer.uses]
        if all(user.name == "memref.dealloc"
               or (user.name in STORE_OPS and user._operands[1].value is buffer)
               for user in users):
            stored = [user._operands[0].value for user in users
                      if user.name in STORE_OPS]
            for user in users:
                user.erase()
            op.erase()
            erase_dead_feeders(stored)
            removed += 1
    return removed

"""Blocks: intrusively linked sequences of operations with block arguments.

Operations are stored as an **intrusive doubly-linked list**: every
:class:`~repro.ir.operation.Operation` carries ``_prev``/``_next`` links and a
monotone integer order key, the representation production MLIR uses for its
op lists.  This makes the block mutations the transforms hammer in hot loops
constant time:

* ``append`` / ``prepend`` / ``insert_before`` / ``insert_after`` /
  ``remove`` are O(1) pointer splices,
* ``insert_all_after`` / ``insert_all_before`` splice k operations in O(k),
* ``Operation.is_before_in_block`` compares the two order keys in O(1).

Order keys are assigned with a large stride (so midpoint insertion almost
never collides) and lazily renumbered in O(n) when a gap is exhausted —
amortized O(1) per insertion.  Python integers are unbounded, so appends and
prepends can never exhaust a gap; only repeated insertion into the *same*
interior gap triggers a renumber.

``block.operations`` stays the public surface: it returns a lightweight
list-like view over the links (iteration, ``len``, indexing from either end,
slices, ``reversed``, membership), so read-only callers did not have to
churn.  ``index_of`` is also kept but is O(n) — mutating callers should use
the anchor-based primitives instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from repro.ir.value import BlockArgument

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.operation import Operation
    from repro.ir.region import Region
    from repro.ir.types import Type

#: Order-key distance between adjacent operations after (re)numbering.  A
#: fresh gap of 2**20 tolerates ~20 midpoint insertions at the same position
#: before the block's order index is invalidated; appends/prepends extend
#: past the ends and never invalidate (Python ints are unbounded).
_ORDER_STRIDE = 1 << 20


class OperationListView:
    """Read-only, list-like view over a block's linked operations.

    Supports the access patterns the old plain-list attribute served:
    iteration, ``len``, integer indexing (O(1) at either end, O(min(i, n-i))
    in the middle), slicing, ``reversed`` and identity membership.

    Iteration walks the links directly and pre-fetches the successor, so
    detaching or erasing the op *currently visited* is safe; any other
    mutation during iteration (like mutating a plain list mid-loop) needs a
    ``list(...)`` snapshot first — ``for op in block`` takes that snapshot
    automatically.
    """

    __slots__ = ("_block",)

    def __init__(self, block: "Block"):
        self._block = block

    def __iter__(self) -> Iterator["Operation"]:
        op = self._block._first
        while op is not None:
            # Fetch the successor before yielding so callers may detach or
            # erase the op they are currently visiting.
            successor = op._next
            yield op
            op = successor

    def __reversed__(self) -> Iterator["Operation"]:
        op = self._block._last
        while op is not None:
            predecessor = op._prev
            yield op
            op = predecessor

    def __len__(self) -> int:
        return self._block._num_ops

    def __bool__(self) -> bool:
        return self._block._num_ops > 0

    def __contains__(self, op) -> bool:
        return getattr(op, "parent", None) is self._block

    def __getitem__(self, key: Union[int, slice]):
        if isinstance(key, slice):
            return list(self)[key]
        return self._block._op_at(key)

    def index(self, op: "Operation") -> int:
        return self._block.index_of(op)

    def __eq__(self, other) -> bool:
        if isinstance(other, OperationListView):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                mine is theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"OperationListView({len(self)} ops)"


class Block:
    """A straight-line sequence of operations.

    Blocks own their operations and may declare block arguments; loop bodies
    use a block argument for the induction variable.
    """

    __slots__ = ("parent", "arguments", "_first", "_last", "_num_ops",
                 "_order_valid", "_view")

    def __init__(self, arg_types: Sequence["Type"] = ()):
        self.parent: Optional["Region"] = None
        self.arguments: list[BlockArgument] = []
        self._first: Optional["Operation"] = None
        self._last: Optional["Operation"] = None
        self._num_ops = 0
        #: False when an interior insertion exhausted its order-key gap; the
        #: next ordering query renumbers lazily (amortized O(1) per insert).
        self._order_valid = True
        self._view = OperationListView(self)
        for arg_type in arg_types:
            self.add_argument(arg_type)

    # -- arguments ---------------------------------------------------------------

    def add_argument(self, type: "Type") -> BlockArgument:
        arg = BlockArgument(type, self, len(self.arguments))
        self.arguments.append(arg)
        return arg

    def erase_argument(self, index: int) -> None:
        arg = self.arguments[index]
        if arg.has_uses():
            raise ValueError("cannot erase a block argument that still has uses")
        del self.arguments[index]
        for i, remaining in enumerate(self.arguments):
            remaining.index = i

    # -- operation list management -------------------------------------------------

    @property
    def operations(self) -> OperationListView:
        """List-like view of the operations, in block order."""
        return self._view

    @property
    def first_op(self) -> Optional["Operation"]:
        return self._first

    @property
    def last_op(self) -> Optional["Operation"]:
        return self._last

    def append(self, op: "Operation") -> "Operation":
        """Append an operation to the end of the block (O(1))."""
        self._take(op)
        self._link(op, self._last, None)
        return op

    def prepend(self, op: "Operation") -> "Operation":
        """Insert an operation at the start of the block (O(1))."""
        self._take(op)
        self._link(op, None, self._first)
        return op

    def insert(self, index: int, op: "Operation") -> "Operation":
        """Insert ``op`` at a positional ``index`` (O(min(i, n-i)) to locate).

        Kept for compatibility; prefer the anchor-based O(1) primitives
        (:meth:`insert_before` / :meth:`insert_after` / :meth:`prepend`).
        """
        # Detach first so the index refers to positions *after* removal,
        # matching the seed list semantics for moves within the same block.
        self._take(op)
        anchor = self._op_at(index) if index < self._num_ops else None
        self._link(op, self._last if anchor is None else anchor._prev, anchor)
        return op

    def insert_before(self, anchor: "Operation", op: "Operation") -> "Operation":
        """Insert ``op`` immediately before ``anchor`` (O(1))."""
        self._check_anchor(anchor)
        if op is anchor:
            raise ValueError("cannot insert an operation relative to itself")
        self._take(op)
        self._link(op, anchor._prev, anchor)
        return op

    def insert_after(self, anchor: "Operation", op: "Operation") -> "Operation":
        """Insert ``op`` immediately after ``anchor`` (O(1))."""
        self._check_anchor(anchor)
        if op is anchor:
            raise ValueError("cannot insert an operation relative to itself")
        self._take(op)
        self._link(op, anchor, anchor._next)
        return op

    def insert_all(self, index: int, ops: Sequence["Operation"]) -> None:
        """Insert many operations at ``index`` in one splice (O(i + k))."""
        ops = list(ops)
        for op in ops:  # detach first, as in insert()
            self._take(op)
        anchor = self._op_at(index) if index < self._num_ops else None
        self._splice_before(anchor, ops)

    def insert_all_before(self, anchor: "Operation", ops: Sequence["Operation"]) -> None:
        """Splice ``ops`` immediately before ``anchor`` (O(k))."""
        self._check_anchor(anchor)
        self._splice_before(anchor, self._take_all(anchor, ops))

    def insert_all_after(self, anchor: "Operation", ops: Sequence["Operation"]) -> None:
        """Splice ``ops`` immediately after ``anchor`` (O(k))."""
        self._check_anchor(anchor)
        ops = self._take_all(anchor, ops)
        # Resolve the successor after the takes so ops already following the
        # anchor in this block do not stand in for the splice position.
        self._splice_before(anchor._next, ops)

    def remove(self, op: "Operation") -> None:
        """Detach an operation from this block without erasing it (O(1))."""
        if op.parent is not self:
            raise ValueError(f"operation {op.name} is not in this block")
        self._unlink(op)
        op.parent = None

    def index_of(self, op: "Operation") -> int:
        """Positional index of ``op`` (O(n) — prefer the anchor primitives)."""
        if op.parent is not self:
            raise ValueError(f"operation {op.name} is not in this block")
        index = 0
        current = self._first
        while current is not None:
            if current is op:
                return index
            index += 1
            current = current._next
        raise ValueError(f"operation {op.name} is not in this block")

    def _take(self, op: "Operation") -> None:
        if op.parent is not None:
            op.parent.remove(op)
        op.parent = self

    def _check_anchor(self, anchor: "Operation") -> None:
        if anchor.parent is not self:
            raise ValueError(f"anchor operation {anchor.name} is not in this block")

    # -- linking internals ----------------------------------------------------------

    def _link(self, op: "Operation", prev_op: Optional["Operation"],
              next_op: Optional["Operation"]) -> None:
        """Splice ``op`` between ``prev_op`` and ``next_op`` and key its order."""
        op._prev = prev_op
        op._next = next_op
        if prev_op is not None:
            prev_op._next = op
        else:
            self._first = op
        if next_op is not None:
            next_op._prev = op
        else:
            self._last = op
        self._num_ops += 1
        self._assign_order(op, prev_op, next_op)

    def _unlink(self, op: "Operation") -> None:
        prev_op, next_op = op._prev, op._next
        if prev_op is not None:
            prev_op._next = next_op
        else:
            self._first = next_op
        if next_op is not None:
            next_op._prev = prev_op
        else:
            self._last = prev_op
        op._prev = op._next = None
        self._num_ops -= 1

    def _take_all(self, anchor: "Operation",
                  ops: Sequence["Operation"]) -> list["Operation"]:
        ops = list(ops)
        # Validate before detaching anything: a partial take would leave
        # earlier ops parented to this block but unlinked.
        if any(op is anchor for op in ops):
            raise ValueError("cannot splice an operation relative to itself")
        for op in ops:
            self._take(op)
        return ops

    def _splice_before(self, anchor: Optional["Operation"],
                       ops: Sequence["Operation"]) -> None:
        """Link already-taken ``ops`` before ``anchor`` (None = at the end)."""
        for op in ops:
            self._link(op, self._last if anchor is None else anchor._prev, anchor)

    def _assign_order(self, op: "Operation", prev_op: Optional["Operation"],
                      next_op: Optional["Operation"]) -> None:
        if prev_op is None and next_op is None:
            op._order = 0
            return
        if next_op is None:
            op._order = prev_op._order + _ORDER_STRIDE
            return
        if prev_op is None:
            op._order = next_op._order - _ORDER_STRIDE
            return
        midpoint = (prev_op._order + next_op._order) // 2
        if midpoint == prev_op._order:
            # Gap exhausted: take a (duplicate) key now and defer the O(n)
            # renumber to the next ordering query, so a burst of insertions
            # at one position stays O(1) each instead of renumbering every
            # ~20 inserts (O(n^2) in total).
            self._order_valid = False
        op._order = midpoint

    def ensure_order(self) -> None:
        """Make order keys strictly increasing, renumbering if stale (O(n))."""
        if not self._order_valid:
            self._renumber()

    def _renumber(self) -> None:
        """Re-key every operation with fresh gaps."""
        order = 0
        current = self._first
        while current is not None:
            current._order = order
            order += _ORDER_STRIDE
            current = current._next
        self._order_valid = True

    # -- queries ------------------------------------------------------------------

    @property
    def terminator(self) -> Optional["Operation"]:
        """The last operation of the block if it is a terminator, else None."""
        last = self._last
        return last if last is not None and last.is_terminator() else None

    @property
    def parent_op(self) -> Optional["Operation"]:
        return self.parent.parent if self.parent is not None else None

    def empty(self) -> bool:
        return self._num_ops == 0

    def __iter__(self) -> Iterator["Operation"]:
        # Snapshot semantics (like the seed's list copy): safe against any
        # mutation while iterating.  `block.operations` iterates the links
        # directly and only tolerates detaching the op being visited.
        return iter(list(self._view))

    def __len__(self) -> int:
        return self._num_ops

    def walk(self) -> Iterator["Operation"]:
        for op in list(self.operations):
            yield from op.walk()

    def __repr__(self) -> str:
        return f"Block({len(self.arguments)} args, {self._num_ops} ops)"

    def _op_at(self, index: int) -> "Operation":
        """The operation at positional ``index`` (negative indices supported)."""
        size = self._num_ops
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("operation index out of range")
        if index < size - index:
            current = self._first
            for _ in range(index):
                current = current._next
        else:
            current = self._last
            for _ in range(size - 1 - index):
                current = current._prev
        return current

"""Operation builders and insertion points."""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.block import Block
    from repro.ir.operation import Operation


class InsertionPoint:
    """A position inside a block where new operations are inserted.

    The position is anchored on an operation — "immediately before
    ``anchor``" (``None`` anchors at the end of the block), "directly after"
    for :meth:`after`, or "the start of the block" for :meth:`at_start` —
    which makes creating and using an insertion point O(1): no positional
    index is ever computed.  Consecutive inserts keep their creation order,
    exactly like the old index-advancing behavior.

    Anchored points resolve their block at insert time, so they stay valid
    when the anchor operation is moved to another block in between.
    """

    def __init__(self, block: Optional["Block"], anchor: "Optional[Operation]" = None,
                 at_start: bool = False, after: "Optional[Operation]" = None):
        self.block = block
        #: Insert before this operation; None means "at the end of block".
        self.anchor = anchor
        #: True while the point means "the start of the block": the anchor is
        #: resolved to the block's first op at first insert, so ops appended
        #: or prepended between creation and use cannot displace it.
        self._at_start = at_start
        #: "Directly after this op" mode: advances to each inserted op so
        #: consecutive inserts keep their order, and ops appended behind the
        #: anchor by other code cannot displace the point.
        self._after = after

    @staticmethod
    def at_end(block: "Block") -> "InsertionPoint":
        return InsertionPoint(block, None)

    @staticmethod
    def at_start(block: "Block") -> "InsertionPoint":
        return InsertionPoint(block, None, at_start=True)

    @staticmethod
    def before(op: "Operation") -> "InsertionPoint":
        return InsertionPoint(op.parent, op)

    @staticmethod
    def after(op: "Operation") -> "InsertionPoint":
        return InsertionPoint(op.parent, after=op)

    def insert(self, op: "Operation") -> "Operation":
        if self._after is not None:
            block = self._after.parent
            if block is None:
                raise ValueError("insertion anchor is no longer in a block")
            self.block = block
            inserted = block.insert_after(self._after, op)
            self._after = inserted
            return inserted
        if self._at_start:
            self.anchor = self.block.first_op
            self._at_start = False
            if self.anchor is None:
                # First insert into an empty block: append, then keep
                # tracking the front by advancing behind what we inserted
                # (old index semantics), not by degrading to "at end".
                inserted = self.block.append(op)
                self._after = inserted
                return inserted
        if self.anchor is None:
            return self.block.append(op)
        block = self.anchor.parent
        if block is None:
            raise ValueError("insertion anchor is no longer in a block")
        self.block = block
        return block.insert_before(self.anchor, op)


class Builder:
    """Creates operations at a movable insertion point.

    The builder is deliberately dialect-agnostic: dialect modules provide
    functions taking a builder and returning the created operation, e.g.
    ``arith.constant(builder, 1.0, f32)``.
    """

    def __init__(self, insertion_point: Optional[InsertionPoint] = None):
        self.insertion_point = insertion_point

    # -- insertion point management --------------------------------------------------

    def set_insertion_point_to_end(self, block: "Block") -> None:
        self.insertion_point = InsertionPoint.at_end(block)

    def set_insertion_point_to_start(self, block: "Block") -> None:
        self.insertion_point = InsertionPoint.at_start(block)

    def set_insertion_point_before(self, op: "Operation") -> None:
        self.insertion_point = InsertionPoint.before(op)

    @contextlib.contextmanager
    def at_end(self, block: "Block"):
        """Temporarily move the insertion point to the end of ``block``."""
        saved = self.insertion_point
        self.set_insertion_point_to_end(block)
        try:
            yield self
        finally:
            self.insertion_point = saved

    @contextlib.contextmanager
    def at_start(self, block: "Block"):
        saved = self.insertion_point
        self.set_insertion_point_to_start(block)
        try:
            yield self
        finally:
            self.insertion_point = saved

    @contextlib.contextmanager
    def before(self, op: "Operation"):
        saved = self.insertion_point
        self.set_insertion_point_before(op)
        try:
            yield self
        finally:
            self.insertion_point = saved

    # -- op creation ---------------------------------------------------------------------

    def insert(self, op: "Operation") -> "Operation":
        """Insert an already constructed operation at the insertion point."""
        if self.insertion_point is None:
            raise RuntimeError("builder has no insertion point")
        return self.insertion_point.insert(op)

    def create(self, op_class, *args, **kwargs) -> "Operation":
        """Construct ``op_class(*args, **kwargs)`` and insert it."""
        op = op_class(*args, **kwargs)
        return self.insert(op)

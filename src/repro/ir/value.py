"""SSA values.

A :class:`Value` is produced either as a block argument or as the result of
an operation.  Every value keeps a use list so transforms can perform
replace-all-uses-with and dead-code elimination efficiently.

The use list is stored as an insertion-ordered dict keyed by the identity of
each :class:`Use`, which makes the operations the rewrite driver hammers
O(1) *without* changing the observable order of ``value.uses``:

* registering a use (``Operation.append_operand``) appends to the dict,
* dropping a use (``erase``/``set_operand``/``drop_all_references``) deletes
  its key — the seed representation scanned a plain list per removal, which
  made erasing ops that touch a many-use value (a memref feeding thousands
  of unrolled accesses) quadratic in the use count,
* ``num_uses``/``has_uses`` read ``len()`` of the dict.

``value.uses`` stays the public read surface: it returns the uses in
registration order (a fresh snapshot list, safe to iterate while mutating).
Every class here carries ``__slots__`` — per-op memory is a first-order cost
for fully-unrolled kernels, where one DSE evaluation materializes hundreds
of thousands of values and uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.ir.block import Block
    from repro.ir.operation import Operation
    from repro.ir.types import Type


class Use:
    """One use of a value: operand ``index`` of operation ``owner``."""

    __slots__ = ("value", "owner", "index")

    def __init__(self, value: "Value", owner: "Operation", index: int):
        self.value = value
        self.owner = owner
        self.index = index

    def __repr__(self) -> str:
        return f"Use({self.owner.name}, operand {self.index})"


class Value:
    """Base class of SSA values."""

    __slots__ = ("type", "_uses")

    def __init__(self, type: "Type"):
        self.type = type
        #: id(Use) -> Use, in registration order (dicts preserve insertion
        #: order, and deleting a key keeps the order of the rest).
        self._uses: dict[int, Use] = {}

    # -- use-list management ----------------------------------------------------

    @property
    def uses(self) -> list[Use]:
        """The uses of this value, in registration order (fresh snapshot)."""
        return list(self._uses.values())

    def add_use(self, owner: "Operation", index: int) -> Use:
        use = Use(self, owner, index)
        self._uses[id(use)] = use
        return use

    def drop_use(self, use: Use) -> None:
        """Unregister ``use`` (O(1); it must belong to this value)."""
        del self._uses[id(use)]

    @property
    def users(self) -> list["Operation"]:
        """Operations that use this value (duplicates removed, first-use order)."""
        return list(dict.fromkeys(use.owner for use in self._uses.values()))

    def has_uses(self) -> bool:
        return bool(self._uses)

    def num_uses(self) -> int:
        return len(self._uses)

    def replace_all_uses_with(self, other: "Value") -> None:
        """Rewrite every use of this value to use ``other`` instead.

        The :class:`Use` objects themselves move, in registration order, to
        the end of ``other``'s use list (their owners hold them as operands,
        so nothing is re-created).
        """
        if other is self:
            return
        uses, moved = self._uses, other._uses
        for key, use in uses.items():
            use.value = other
            moved[key] = use
        uses.clear()

    # -- structural queries -------------------------------------------------------

    @property
    def owner(self):
        raise NotImplementedError


class BlockArgument(Value):
    """A value defined as an argument of a block (e.g. a loop induction variable)."""

    __slots__ = ("block", "index")

    def __init__(self, type: "Type", block: "Block", index: int):
        super().__init__(type)
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block

    def __repr__(self) -> str:
        return f"BlockArgument({self.type}, index={self.index})"


class OpResult(Value):
    """A value produced as the ``index``-th result of an operation."""

    __slots__ = ("operation", "index")

    def __init__(self, type: "Type", operation: "Operation", index: int):
        super().__init__(type)
        self.operation = operation
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.operation

    def __repr__(self) -> str:
        return f"OpResult({self.operation.name}, {self.type}, index={self.index})"

"""Operations: the minimal unit of code in the IR.

An operation has a name (``dialect.mnemonic``), typed operands and results,
an attribute dictionary, and an ordered list of regions.  Dialect-specific
operation classes subclass :class:`Operation` and keep all of their state in
the base fields, which lets :meth:`Operation.clone` reproduce any operation
without knowing its concrete class.

Two constant-factor decisions shape this module, both aimed at the DSE hot
loop (one evaluation of a fully-unrolled kernel materializes hundreds of
thousands of operations):

* every class carries ``__slots__`` (subclasses declare ``__slots__ = ()``
  and keep their state in the base fields), cutting per-op memory by the
  cost of an instance ``__dict__``;
* operands are stored as the :class:`~repro.ir.value.Use` objects
  themselves, so dropping an operand's use is an O(1) dict deletion on the
  value instead of a scan of its (possibly huge) use list;
* attribute dictionaries are interned across clones: when every attribute
  value is one clone would share anyway (no lists/dicts/clonables), the
  clone references the *same* dict, copy-on-write — mutate only through
  :meth:`set_attr` / :meth:`remove_attr`, never ``op.attributes[k] = v``.
"""

from __future__ import annotations

import sys
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

from repro.ir.region import Region
from repro.ir.value import OpResult, Use, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.block import Block
    from repro.ir.types import Type

#: Operation names that terminate a block.
TERMINATOR_OPS = {
    "func.return",
    "affine.yield",
    "scf.yield",
    "cf.br",
    "cf.cond_br",
}

#: Operation names with memory or other side effects (never dead-code eliminated).
SIDE_EFFECT_OPS = {
    "memref.store",
    "affine.store",
    "memref.copy",
    "memref.dealloc",
    "func.call",
    "func.return",
    "affine.yield",
    "scf.yield",
    "graph.output",
}

_intern = sys.intern


class Operation:
    """A generic operation."""

    __slots__ = ("name", "_attributes", "_attrs_shared", "parent",
                 "_prev", "_next", "_order", "_operands", "results", "regions")

    def __init__(self, name: str, operands: Sequence[Value] = (),
                 result_types: Sequence["Type"] = (),
                 attributes: Optional[dict[str, Any]] = None,
                 num_regions: int = 0):
        # Interned names make the rewrite driver's per-name dict dispatch a
        # pointer-hash lookup and deduplicate dynamically composed names.
        self.name = _intern(name)
        self._attributes: dict[str, Any] = dict(attributes) if attributes else {}
        #: True while ``_attributes`` may be referenced by another operation
        #: (clone interning); mutations copy first.
        self._attrs_shared = False
        self.parent: Optional["Block"] = None
        #: Intrusive block-list links and order key, owned by the parent
        #: Block (see repro.ir.block): _prev/_next chain the ops of a block
        #: and _order is a monotone key making "is A before B" an O(1)
        #: integer comparison.
        self._prev: Optional["Operation"] = None
        self._next: Optional["Operation"] = None
        self._order = 0
        #: The operand uses themselves, in operand order; ``use.value`` is
        #: the operand.  Holding the Use (not the Value) makes dropping it
        #: O(1) on the value's use dict.
        self._operands: list[Use] = []
        self.results: list[OpResult] = []
        self.regions: list[Region] = []
        for operand in operands:
            self.append_operand(operand)
        for i, result_type in enumerate(result_types):
            self.results.append(OpResult(result_type, self, i))
        for _ in range(num_regions):
            self.regions.append(Region(self))

    # -- operand management --------------------------------------------------------

    @property
    def operands(self) -> tuple[Value, ...]:
        # A list-comp feeding tuple() beats the genexpr form measurably;
        # this property alone shows up in DSE profiles (~180k calls/eval).
        return tuple([use.value for use in self._operands])

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def operand(self, index: int) -> Value:
        return self._operands[index].value

    def append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise TypeError(f"operand of {self.name} must be a Value, got {value!r}")
        self._operands.append(value.add_use(self, len(self._operands)))

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        old.value.drop_use(old)
        self._operands[index] = value.add_use(self, index)

    def set_operands(self, values: Sequence[Value]) -> None:
        self.drop_operand_uses()
        self._operands = []
        for value in values:
            self.append_operand(value)

    def drop_operand_uses(self) -> None:
        for use in self._operands:
            try:
                use.value.drop_use(use)
            except KeyError:
                pass  # already dropped (e.g. erase after remove)

    def replaces_uses_of(self, old: Value, new: Value) -> None:
        for i, use in enumerate(self._operands):
            if use.value is old:
                self.set_operand(i, new)

    # -- results ---------------------------------------------------------------------

    @property
    def num_results(self) -> int:
        return len(self.results)

    def result(self, index: int = 0) -> OpResult:
        return self.results[index]

    # -- regions ---------------------------------------------------------------------

    def add_region(self) -> Region:
        region = Region(self)
        self.regions.append(region)
        return region

    def region(self, index: int = 0) -> Region:
        return self.regions[index]

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    # -- structural properties ----------------------------------------------------------

    @property
    def dialect(self) -> str:
        return self.name.split(".", 1)[0] if "." in self.name else ""

    def is_terminator(self) -> bool:
        return self.name in TERMINATOR_OPS

    def has_side_effects(self) -> bool:
        if self.name in SIDE_EFFECT_OPS:
            return True
        # Conservatively treat region-holding ops as side-effecting containers.
        return bool(self.regions)

    @property
    def parent_region(self) -> Optional[Region]:
        return self.parent.parent if self.parent is not None else None

    @property
    def parent_op(self) -> Optional["Operation"]:
        region = self.parent_region
        return region.parent if region is not None else None

    def parent_of_type(self, op_name: str) -> Optional["Operation"]:
        """Closest ancestor operation with the given name (or None)."""
        current = self.parent_op
        while current is not None:
            if current.name == op_name:
                return current
            current = current.parent_op
        return None

    def ancestors(self) -> Iterator["Operation"]:
        current = self.parent_op
        while current is not None:
            yield current
            current = current.parent_op

    def is_ancestor_of(self, other: "Operation") -> bool:
        return any(ancestor is self for ancestor in other.ancestors())

    def is_before_in_block(self, other: "Operation") -> bool:
        if self.parent is None or self.parent is not other.parent:
            raise ValueError("operations are not in the same block")
        self.parent.ensure_order()
        return self._order < other._order

    @property
    def prev_op(self) -> Optional["Operation"]:
        """The operation immediately before this one in its block (O(1))."""
        return self._prev

    @property
    def next_op(self) -> Optional["Operation"]:
        """The operation immediately after this one in its block (O(1))."""
        return self._next

    # -- movement and deletion --------------------------------------------------------------

    def move_before(self, anchor: "Operation") -> None:
        block = anchor.parent
        if block is None:
            raise ValueError("anchor operation is not in a block")
        if self.parent is not None:
            self.parent.remove(self)
        block.insert_before(anchor, self)

    def move_after(self, anchor: "Operation") -> None:
        block = anchor.parent
        if block is None:
            raise ValueError("anchor operation is not in a block")
        if self.parent is not None:
            self.parent.remove(self)
        block.insert_after(anchor, self)

    def detach(self) -> "Operation":
        if self.parent is not None:
            self.parent.remove(self)
        return self

    def erase(self) -> None:
        """Remove the operation from its block and drop every reference it holds."""
        for result in self.results:
            if result.has_uses():
                raise ValueError(
                    f"cannot erase {self.name}: result still has "
                    f"{result.num_uses()} uses")
        self.drop_all_references()
        if self.parent is not None:
            self.parent.remove(self)

    def drop_all_references(self) -> None:
        """Drop operand uses of this op and of everything nested inside it."""
        self.drop_operand_uses()
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.operations):
                    op.drop_all_references()

    def dismantle(self) -> None:
        """Break every reference cycle of this operation and everything
        nested inside it (links, parents, results, uses, block views), so
        reference counting frees the IR once the last outside reference
        goes and the cyclic collector never sees it.  For IR thrown away
        whole: it is unusable afterwards."""
        self.detach()
        ops = list(self.walk())
        for op in ops:
            op.drop_operand_uses()
        for op in ops:
            for region in op.regions:
                for block in region.blocks:
                    block.parent = block._first = block._last = None
                    block._view = None
                    block.arguments = []
                region.parent = None
                region.blocks = []
            op.parent = op._prev = op._next = None
            op._operands, op.results, op.regions = [], [], []

    # -- traversal ---------------------------------------------------------------------------

    def walk(self) -> Iterator["Operation"]:
        """Pre-order traversal of this operation and everything nested inside.

        Iterative (an explicit stack, not one generator frame per nesting
        level): the traversal is a hot path of the rewrite driver, the
        verifier and every ``run_on_module``.  Children are snapshotted when
        their parent is yielded, so erasing or moving already-yielded ops is
        safe; for heavier mutation take a ``list(...)`` first.
        """
        stack = [self]
        pop = stack.pop
        while stack:
            op = pop()
            yield op
            if op.regions:
                children = [nested for region in op.regions
                            for block in region.blocks
                            for nested in block.operations]
                children.reverse()
                stack.extend(children)

    def walk_post_order(self) -> Iterator["Operation"]:
        # Reversed pre-order with children pushed left-to-right == post-order.
        ordered = []
        append = ordered.append
        stack = [self]
        pop = stack.pop
        while stack:
            op = pop()
            append(op)
            for region in op.regions:
                for block in region.blocks:
                    stack.extend(block.operations)
        return reversed(ordered)

    # -- cloning ------------------------------------------------------------------------------

    def clone(self, value_map: Optional[dict[Value, Value]] = None) -> "Operation":
        """Deep-copy the operation (and its regions), remapping operands.

        ``value_map`` maps values defined outside the clone to their
        replacements; values defined inside the cloned region are remapped
        automatically.  The map is updated with the cloned results so that
        callers can chain clones.
        """
        if value_map is None:
            value_map = {}
        new_op = self.clone_without_regions(value_map)
        for region in self.regions:
            new_region = new_op.add_region()
            for block in region.blocks:
                from repro.ir.block import Block

                new_block = Block()
                new_region.add_block(new_block)
                for argument in block.arguments:
                    new_argument = new_block.add_argument(argument.type)
                    value_map[argument] = new_argument
                for op in block.operations:
                    new_block.append(op.clone(value_map))
        return new_op

    def clone_without_regions(self, value_map: dict[Value, Value]) -> "Operation":
        """:meth:`clone` short of the regions: operands remapped, results
        entered into ``value_map``, ``regions`` left empty for a caller that
        builds the nested blocks itself (loop unrolling expands the loops
        inside a region op while it copies it)."""
        new_op = object.__new__(type(self))
        # Slot-by-slot construction instead of Operation.__init__: cloning
        # materializes hundreds of thousands of ops per unrolled evaluation,
        # and the per-operand isinstance check + add_use call were the
        # hottest leaves of the whole DSE profile.  self.name is interned
        # already and operand values are Values by construction, so the
        # checks __init__ performs cannot fire here.
        new_op.name = self.name
        new_op._attributes = {}
        new_op._attrs_shared = False
        new_op.parent = None
        new_op._prev = None
        new_op._next = None
        new_op._order = 0
        operands = self._operands
        if operands:
            get = value_map.get
            new_uses = []
            for index, use in enumerate(operands):
                value = get(use.value, use.value)
                new_use = Use(value, new_op, index)
                value._uses[id(new_use)] = new_use
                new_uses.append(new_use)
            new_op._operands = new_uses
        else:
            new_op._operands = []
        new_op.results = [OpResult(result.type, new_op, index)
                          for index, result in enumerate(self.results)]
        new_op.regions = []
        attrs = self._attributes
        if attrs:
            if self._attrs_shared or _attrs_shareable(attrs):
                # Intern the dict: mass cloning (loop_unroll) re-references
                # one attribute dict instead of copying it per clone.
                # set_attr/remove_attr copy-on-write, so sharing is safe.
                self._attrs_shared = True
                new_op._attributes = attrs
                new_op._attrs_shared = True
            else:
                new_op._attributes = _clone_attributes(attrs)
        for old_result, new_result in zip(self.results, new_op.results):
            value_map[old_result] = new_result
        return new_op

    # -- attribute helpers -------------------------------------------------------------------------

    @property
    def attributes(self):
        """The attribute mapping, as a read-only view.

        Always a proxy — the backing dict may be interned across clones (or
        become interned by a later ``clone()``), so a stray
        ``op.attributes[k] = v`` raises instead of silently editing every
        sharing clone.  Mutate via :meth:`set_attr` / :meth:`remove_attr`.
        """
        return MappingProxyType(self._attributes)

    def _own_attributes(self) -> dict[str, Any]:
        if self._attrs_shared:
            self._attributes = dict(self._attributes)
            self._attrs_shared = False
        return self._attributes

    def get_attr(self, key: str, default: Any = None) -> Any:
        return self._attributes.get(key, default)

    def set_attr(self, key: str, value: Any) -> None:
        self._own_attributes()[key] = value

    def remove_attr(self, key: str) -> None:
        self._own_attributes().pop(key, None)

    def has_attr(self, key: str) -> bool:
        return key in self._attributes

    # -- pickling ----------------------------------------------------------------------------------

    def __reduce__(self):
        # The tree this op roots, as one flat encoding (repro.ir.encoding):
        # pickle's own traversal would recurse through blocks and use lists.
        if self.parent is not None:
            raise TypeError(f"cannot pickle {self.name} inside a block: "
                            f"pickle the operation that roots its tree")
        from repro.ir.encoding import decode_root, encode

        return decode_root, (encode(self)[0],)

    # -- misc ---------------------------------------------------------------------------------------

    def __repr__(self) -> str:
        results = ", ".join(str(r.type) for r in self.results)
        return f"<{self.name} -> ({results})>"


def _attrs_shareable(attributes: dict[str, Any]) -> bool:
    """True when :func:`_clone_attributes` would share every value anyway.

    Lists and dicts are copied per clone, and values exposing ``clone()``
    (the mutable hlscpp directives) are cloned — an attribute dict holding
    any of those cannot be interned.  Everything else (ints, strings,
    affine maps/sets, types) is shared by clones today, so sharing the dict
    itself only deduplicates the container.
    """
    for value in attributes.values():
        if isinstance(value, (list, dict)):
            return False
        if hasattr(value, "clone") and not isinstance(value, type):
            return False
    return True


def _clone_attributes(attributes: dict[str, Any]) -> dict[str, Any]:
    cloned: dict[str, Any] = {}
    for key, value in attributes.items():
        if isinstance(value, list):
            cloned[key] = list(value)
        elif isinstance(value, dict):
            cloned[key] = dict(value)
        elif hasattr(value, "clone") and not isinstance(value, type):
            cloned[key] = value.clone() if callable(getattr(value, "clone")) else value
        else:
            cloned[key] = value
    return cloned

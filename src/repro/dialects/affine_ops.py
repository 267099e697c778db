"""The ``affine`` dialect: structured loops, conditionals and memory accesses.

``affine.for`` loop bounds are affine maps over SSA operands, which lets the
same operation represent both constant-bound loops and loops whose bounds
depend on outer induction variables (the SYRK ``%j`` loop of the paper's
Fig. 5).  ``affine.load`` / ``affine.store`` carry an access map applied to
their index operands, and ``affine.if`` carries an integer set condition.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.affine.analysis import expr_min_max
from repro.affine.expr import AffineConstantExpr, AffineExpr, constant as const_expr, dim as dim_expr
from repro.affine.map import AffineMap
from repro.affine.set import IntegerSet
from repro.ir.block import Block
from repro.ir.dialect import register_operation
from repro.ir.operation import Operation
from repro.ir.types import IndexType, MemRefType, Type, index
from repro.ir.value import BlockArgument, OpResult, Value


@register_operation("affine", "for")
class AffineForOp(Operation):
    """An affine loop ``affine.for %iv = lower to upper step s``.

    Bounds are affine maps; the effective lower bound is the *maximum* over
    the lower map's results and the upper bound the *minimum* over the upper
    map's results (MLIR semantics).  Operands are the lower-bound operands
    followed by the upper-bound operands.
    """

    __slots__ = ()

    def __init__(self, lower_map: AffineMap, upper_map: AffineMap, step: int = 1,
                 lb_operands: Sequence[Value] = (), ub_operands: Sequence[Value] = (),
                 attributes: Optional[dict] = None):
        attrs = dict(attributes or {})
        attrs["lower_map"] = lower_map
        attrs["upper_map"] = upper_map
        attrs["step"] = int(step)
        attrs["num_lb_operands"] = len(lb_operands)
        super().__init__("affine.for", operands=[*lb_operands, *ub_operands],
                         attributes=attrs, num_regions=1)
        self.region(0).add_block(Block([index]))

    # -- construction helpers -----------------------------------------------------

    @classmethod
    def constant_bounds(cls, lower: int, upper: int, step: int = 1) -> "AffineForOp":
        """A loop with constant bounds ``[lower, upper)``."""
        return cls(AffineMap.constant_map(lower), AffineMap.constant_map(upper), step)

    # -- accessors ------------------------------------------------------------------

    @property
    def lower_map(self) -> AffineMap:
        return self.get_attr("lower_map")

    @property
    def upper_map(self) -> AffineMap:
        return self.get_attr("upper_map")

    @property
    def step(self) -> int:
        return self.get_attr("step")

    def set_step(self, step: int) -> None:
        self.set_attr("step", int(step))

    @property
    def num_lb_operands(self) -> int:
        return self.get_attr("num_lb_operands")

    @property
    def lb_operands(self) -> tuple[Value, ...]:
        return self.operands[: self.num_lb_operands]

    @property
    def ub_operands(self) -> tuple[Value, ...]:
        return self.operands[self.num_lb_operands:]

    @property
    def body(self) -> Block:
        return self.region(0).front

    @property
    def induction_variable(self) -> BlockArgument:
        return self.body.arguments[0]

    # -- bound manipulation ------------------------------------------------------------

    def set_constant_bounds(self, lower: int, upper: int) -> None:
        self.set_attr("lower_map", AffineMap.constant_map(lower))
        self.set_attr("upper_map", AffineMap.constant_map(upper))
        self.set_attr("num_lb_operands", 0)
        self.set_operands([])

    # -- queries -------------------------------------------------------------------------

    def has_constant_lower_bound(self) -> bool:
        return self.lower_map.is_single_constant()

    def has_constant_upper_bound(self) -> bool:
        return self.upper_map.is_single_constant()

    def has_constant_bounds(self) -> bool:
        return self.has_constant_lower_bound() and self.has_constant_upper_bound()

    @property
    def constant_lower_bound(self) -> int:
        return self.lower_map.single_constant_result()

    @property
    def constant_upper_bound(self) -> int:
        return self.upper_map.single_constant_result()

    def trip_count(self) -> Optional[int]:
        """Number of iterations if the bounds are constant, else None."""
        lower = self.lower_map.single_constant
        upper = self.upper_map.single_constant
        if lower is None or upper is None:
            return None
        span = upper - lower
        if span <= 0:
            return 0
        step = max(1, self.step)
        return -(-span // step)

    def nested_for_ops(self) -> list["AffineForOp"]:
        """Directly nested ``affine.for`` ops in this loop's body."""
        return [op for op in self.body.operations if isinstance(op, AffineForOp)]


@register_operation("affine", "yield")
class AffineYieldOp(Operation):
    """Terminator yielding values out of an ``affine.if`` (or loop) region."""

    __slots__ = ()

    def __init__(self, operands: Sequence[Value] = ()):
        super().__init__("affine.yield", operands=operands)


@register_operation("affine", "if")
class AffineIfOp(Operation):
    """A conditional guarded by an integer-set condition over affine operands."""

    __slots__ = ()

    def __init__(self, condition: IntegerSet, operands: Sequence[Value] = (),
                 with_else: bool = False, result_types: Sequence[Type] = ()):
        super().__init__("affine.if", operands=operands, result_types=result_types,
                         attributes={"condition": condition}, num_regions=2)
        self.region(0).add_block(Block())
        if with_else or result_types:
            self.region(1).add_block(Block())

    @property
    def condition(self) -> IntegerSet:
        return self.get_attr("condition")

    @property
    def then_block(self) -> Block:
        return self.region(0).front

    @property
    def else_block(self) -> Optional[Block]:
        return self.region(1).front if self.region(1).blocks else None

    def has_else(self) -> bool:
        return bool(self.region(1).blocks) and not self.region(1).front.empty()


@register_operation("affine", "apply")
class AffineApplyOp(Operation):
    """Apply a single-result affine map to index operands."""

    __slots__ = ()

    def __init__(self, map: AffineMap, operands: Sequence[Value]):
        if map.num_results != 1:
            raise ValueError("affine.apply requires a single-result map")
        if map.num_dims != len(operands):
            raise ValueError("operand count must match the map's dim count")
        super().__init__("affine.apply", operands=operands, result_types=[index],
                         attributes={"map": map})

    @property
    def map(self) -> AffineMap:
        return self.get_attr("map")


@register_operation("affine", "load")
class AffineLoadOp(Operation):
    """Load through an affine access map: ``affine.load %m[map(%indices)]``."""

    __slots__ = ()

    def __init__(self, memref: Value, indices: Sequence[Value],
                 map: Optional[AffineMap] = None):
        memref_type = memref.type
        if not isinstance(memref_type, MemRefType):
            raise TypeError("affine.load requires a memref-typed operand")
        if map is None:
            map = AffineMap.identity(len(indices))
        if map.num_results != memref_type.rank:
            raise ValueError("access map result count must match memref rank")
        super().__init__("affine.load", operands=[memref, *indices],
                         result_types=[memref_type.element_type],
                         attributes={"map": map})

    @property
    def memref(self) -> Value:
        return self.operand(0)

    @property
    def indices(self) -> tuple[Value, ...]:
        return self.operands[1:]

    @property
    def map(self) -> AffineMap:
        return self.get_attr("map")


@register_operation("affine", "store")
class AffineStoreOp(Operation):
    """Store through an affine access map."""

    __slots__ = ()

    def __init__(self, value: Value, memref: Value, indices: Sequence[Value],
                 map: Optional[AffineMap] = None):
        memref_type = memref.type
        if not isinstance(memref_type, MemRefType):
            raise TypeError("affine.store requires a memref-typed operand")
        if map is None:
            map = AffineMap.identity(len(indices))
        if map.num_results != memref_type.rank:
            raise ValueError("access map result count must match memref rank")
        super().__init__("affine.store", operands=[value, memref, *indices],
                         attributes={"map": map})

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def memref(self) -> Value:
        return self.operand(1)

    @property
    def indices(self) -> tuple[Value, ...]:
        return self.operands[2:]

    @property
    def map(self) -> AffineMap:
        return self.get_attr("map")


# -- access and band utilities ---------------------------------------------------------


def is_affine_access(op: Operation) -> bool:
    return op.name in ("affine.load", "affine.store")


def access_memref(op: Operation) -> Value:
    """The memref operand of an affine or memref load/store."""
    if op.name in ("affine.load", "memref.load"):
        return op.operand(0)
    if op.name in ("affine.store", "memref.store"):
        return op.operand(1)
    raise ValueError(f"{op.name} is not a memory access")


def access_indices(op: Operation) -> tuple[Value, ...]:
    if op.name in ("affine.load", "memref.load"):
        return op.operands[1:]
    if op.name in ("affine.store", "memref.store"):
        return op.operands[2:]
    raise ValueError(f"{op.name} is not a memory access")


def access_is_write(op: Operation) -> bool:
    return op.name in ("affine.store", "memref.store")


def value_to_affine_expr(value: Value, dim_map: dict[Value, int]) -> Optional[AffineExpr]:
    """Express an index ``value`` as an affine expression over the dims in ``dim_map``.

    ``dim_map`` maps loop induction variables (or other anchor values) to dim
    positions.  The chase follows ``affine.apply``, ``arith.constant`` and the
    linear integer arithmetic ops; anything else returns None.
    """
    if value in dim_map:
        return dim_expr(dim_map[value])
    if isinstance(value, OpResult):
        op = value.owner
        if op.name == "arith.constant":
            return const_expr(int(op.get_attr("value")))
        if op.name == "affine.apply":
            operand_exprs = []
            for operand in op.operands:
                expr = value_to_affine_expr(operand, dim_map)
                if expr is None:
                    return None
                operand_exprs.append(expr)
            return op.get_attr("map").results[0].replace(operand_exprs)
        if op.name in ("arith.addi", "arith.subi", "arith.muli"):
            lhs = value_to_affine_expr(op.operand(0), dim_map)
            rhs = value_to_affine_expr(op.operand(1), dim_map)
            if lhs is None or rhs is None:
                return None
            if op.name == "arith.addi":
                return lhs + rhs
            if op.name == "arith.subi":
                return lhs - rhs
            if isinstance(lhs, AffineConstantExpr) or isinstance(rhs, AffineConstantExpr):
                return lhs * rhs
            return None
    return None


def constant_bound_domain(op: Operation
                          ) -> tuple[dict[Value, int], list[tuple[int, int]]]:
    """The constant-bound loops around ``op``, outermost first, as the dim
    position of each one's induction variable and its half-open range."""
    loops = [ancestor for ancestor in op.ancestors()
             if isinstance(ancestor, AffineForOp)
             and ancestor.has_constant_bounds()]
    loops.reverse()
    return band_dim_map(loops), band_dim_ranges(loops)


def index_value_range(value: Value, domain: Optional[tuple] = None
                      ) -> Optional[tuple[int, int]]:
    """Half-open range of an index ``value``, if derivable.

    Handles constants, induction variables of constant-bound loops, and
    values computed from them through ``affine.apply`` / integer arithmetic
    (the combined indices produced by loop tiling), bounded over ``domain``:
    the :func:`constant_bound_domain` of the operation that defines
    ``value``, looked up when left out.  A caller whose operations are in
    no block yet (loop unrolling, before it splices its copies in) passes
    the domain they will sit in.
    """
    if isinstance(value, BlockArgument):
        owner = value.owner.parent_op if value.owner.parent is not None else None
        if isinstance(owner, AffineForOp) and owner.has_constant_bounds():
            return (owner.constant_lower_bound, owner.constant_upper_bound)
        return None
    if not isinstance(value, OpResult):
        return None
    if value.owner.name == "arith.constant":
        constant = int(value.owner.get_attr("value"))
        return (constant, constant + 1)
    dim_map, dim_ranges = domain or constant_bound_domain(value.owner)
    expr = value_to_affine_expr(value, dim_map)
    if expr is None:
        return None
    try:
        low, high = expr_min_max(expr, dim_ranges)
    except ValueError:
        return None
    return (low, high + 1)


def access_expressions(op: Operation, dim_map: dict[Value, int],
                       derived: Optional[dict[Value, Optional[AffineExpr]]] = None
                       ) -> Optional[list[AffineExpr]]:
    """Per-dimension index expressions of an access in terms of ``dim_map`` dims.

    ``derived`` keeps :func:`value_to_affine_expr` of each index operand for
    the next access under the same ``dim_map`` (after CSE one
    ``affine.apply`` feeds many accesses).
    """
    indices = access_indices(op)
    if op.name in ("affine.load", "affine.store"):
        access_map: AffineMap = op.get_attr("map")
        # All-constant fast path (the shape of every access in a fully
        # unrolled pipelined body): evaluate the map numerically rather than
        # substituting constant exprs into each result and re-folding the
        # tree.  The construction-time fold rules collapse an all-constant
        # substitution to the same AffineConstantExpr, so the output is
        # identical.
        if access_map.num_symbols == 0:
            values: Optional[list[int]] = []
            for operand in indices:
                if (isinstance(operand, OpResult)
                        and operand.owner.name == "arith.constant"
                        and operand not in dim_map):
                    values.append(int(operand.owner.get_attr("value")))
                else:
                    values = None
                    break
            if values is not None and len(values) == access_map.num_dims:
                return [const_expr(value) for value in access_map.evaluate(values)]
    operand_exprs = []
    for operand in indices:
        if derived is None:
            expr = value_to_affine_expr(operand, dim_map)
        elif operand in derived:
            expr = derived[operand]
        else:
            expr = derived[operand] = value_to_affine_expr(operand, dim_map)
        if expr is None:
            return None
        operand_exprs.append(expr)
    if op.name in ("affine.load", "affine.store"):
        access_map: AffineMap = op.get_attr("map")
        return [result.replace(operand_exprs) for result in access_map.results]
    return operand_exprs


class AccessTable:
    """Index expressions of memory accesses, derived once per evaluation.

    ``array-partition`` and the QoR estimator ask :func:`access_expressions`
    the same question about the same accesses, with no IR change in between;
    the pass fills a table and the estimator is handed it.  An entry
    remembers the loop nest it was derived under and is used only by a
    reader analysing under the same loops (same objects, same order), so a
    table filled for another function, or an access that moved since, is
    re-derived rather than trusted.  The table does not see index operands
    being rewritten: whoever mutates the IR after filling it drops it.
    """

    __slots__ = ("_nests", "_entries", "_derived")

    def __init__(self):
        #: Block -> (its ``affine.for`` ancestors, their dim map): one
        #: ancestor walk per block, not per access.
        self._nests: dict[Block, tuple[tuple[AffineForOp, ...], dict[Value, int]]] = {}
        #: Access -> (loops derived under, index expressions or None).
        self._entries: dict[Operation, tuple[tuple[AffineForOp, ...],
                                             Optional[list[AffineExpr]]]] = {}
        #: Loop nest -> index value -> its expression over that nest's dims:
        #: one derivation per value, not per access it feeds.
        self._derived: dict[tuple[AffineForOp, ...],
                            dict[Value, Optional[AffineExpr]]] = {}

    def nest(self, op: Operation) -> tuple[tuple[AffineForOp, ...], dict[Value, int]]:
        """The ``affine.for`` ancestors of ``op``, outermost first, and the
        dim position of each one's induction variable."""
        nest = self._nests.get(op.parent)
        if nest is None:
            loops = tuple(reversed([ancestor for ancestor in op.ancestors()
                                    if isinstance(ancestor, AffineForOp)]))
            nest = self._nests[op.parent] = (loops, band_dim_map(loops))
        return nest

    def expressions(self, op: Operation, loops: tuple[AffineForOp, ...],
                    dim_map: dict[Value, int]) -> Optional[list[AffineExpr]]:
        """``access_expressions(op, dim_map)``, where ``dim_map`` numbers the
        induction variables of ``loops``: kept from the first call made
        under those loops."""
        entry = self._entries.get(op)
        if entry is None or entry[0] != loops:
            derived = self._derived.get(loops)
            if derived is None:
                derived = self._derived[loops] = {}
            entry = self._entries[op] = (
                loops, access_expressions(op, dim_map, derived))
        return entry[1]


def perfect_loop_band(outer: AffineForOp) -> list[AffineForOp]:
    """The maximal perfectly nested band rooted at ``outer``.

    A band is perfect when each loop's body contains exactly one operation
    and that operation is the next ``affine.for`` (ignoring a trailing
    ``affine.yield``).
    """
    band = [outer]
    current = outer
    while True:
        body_ops = [op for op in current.body.operations if op.name != "affine.yield"]
        if len(body_ops) == 1 and isinstance(body_ops[0], AffineForOp):
            current = body_ops[0]
            band.append(current)
        else:
            break
    return band


def loop_band_from(outer: AffineForOp) -> list[AffineForOp]:
    """The (possibly imperfect) band: follow the unique nested loop at each level."""
    band = [outer]
    current = outer
    while True:
        nested = current.nested_for_ops()
        if len(nested) == 1:
            current = nested[0]
            band.append(current)
        else:
            break
    return band


def outermost_loops(parent: Operation) -> list[AffineForOp]:
    """Top-level ``affine.for`` loops directly inside a function body (or block)."""
    if parent.name == "func.func":
        block = parent.region(0).front
    else:
        block = parent.region(0).front if parent.regions else None
    if block is None:
        return []
    return [op for op in block.operations if isinstance(op, AffineForOp)]


def innermost_loops(root: Operation) -> list[AffineForOp]:
    """Every ``affine.for`` that contains no further loops."""
    result = []
    for op in root.walk():
        if isinstance(op, AffineForOp) and not any(
                isinstance(nested, AffineForOp) for nested in op.walk() if nested is not op):
            result.append(op)
    return result


def band_dim_map(band: Sequence[AffineForOp]) -> dict[Value, int]:
    """Map each band loop's induction variable to its dim position (outermost = 0)."""
    return {loop.induction_variable: position for position, loop in enumerate(band)}


def band_dim_ranges(band: Sequence[AffineForOp]) -> Optional[list[tuple[int, int]]]:
    """Half-open constant iteration ranges of a band (None if any bound is variable)."""
    ranges = []
    for loop in band:
        if not loop.has_constant_bounds():
            return None
        ranges.append((loop.constant_lower_bound, loop.constant_upper_bound))
    return ranges

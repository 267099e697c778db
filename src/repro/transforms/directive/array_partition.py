"""The ``-array-partition`` pass.

Implements the access-pattern-driven array partitioning of Section V-C2: for
every array dimension the pass counts the distinct access index expressions
(``Accesses``) and the maximal index distance between any two accesses, and
derives the partition fashion (cyclic when the accesses are spread densely,
block otherwise) and the partition factor.  The result is encoded into the
memref type's layout map (N inputs -> 2N results) exactly as the paper's
Fig. 3 describes, which is what the QoR estimator and the C++ emitter read.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.affine.analysis import linearize
from repro.affine.expr import AffineExpr
from repro.dialects.affine_ops import (
    AccessTable,
    AffineForOp,
    is_affine_access,
)
from repro.dialects.func import FuncOp
from repro.dialects.hlscpp import is_pipelined
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass, PassOption
from repro.ir.pass_registry import register_pass
from repro.ir.types import FunctionType, MemRefType, PartitionKind
from repro.ir.value import BlockArgument, Value


@dataclasses.dataclass
class PartitionPlan:
    """The chosen partition fashion and factor for every dimension of one array."""

    memref: Value
    partition: tuple[tuple[str, int], ...]

    @property
    def factors(self) -> tuple[int, ...]:
        return tuple(factor for _, factor in self.partition)


def partition_arrays(func_op: Operation,
                     part_factors: Optional[dict[str, Sequence[int]]] = None,
                     max_factor: int = 64,
                     accesses: Optional[AccessTable] = None) -> list[PartitionPlan]:
    """Partition every array accessed by ``func_op``.

    ``part_factors`` optionally pins the factors of specific buffers (keyed by
    argument index as ``arg<i>``, by the ``buffer_name`` attribute of the
    allocating op, or — for an unnamed allocation — by ``buffer<k>``, its
    index among the function's allocations in program order).  Returns the
    plan applied to each partitioned buffer.

    ``accesses`` receives the index expressions the analysis derives, for a
    caller that analyses the same accesses next (the QoR estimator).
    """
    part_factors = part_factors or {}
    if accesses is None:
        accesses = AccessTable()
    plans: list[PartitionPlan] = []
    # One function-level pipelining scan shared across all buffers: the walk
    # over a fully unrolled body is large, and the answer is per-function.
    has_pipelined = _function_has_pipelined_loop(func_op)
    for name, memref_value in _collect_memrefs(func_op):
        if name in part_factors:
            factors = part_factors[name]
            partition = tuple(
                (PartitionKind.CYCLIC if factor > 1 else PartitionKind.NONE, max(1, factor))
                for factor in factors)
        else:
            partition = _derive_partition(memref_value, max_factor,
                                          has_pipelined, accesses)
        if partition is None:
            continue
        if all(factor <= 1 for _, factor in partition):
            continue
        _apply_partition(memref_value, partition, func_op)
        plans.append(PartitionPlan(memref_value, tuple(partition)))
    return plans


@register_pass("array-partition")
class ArrayPartitionPass(FunctionPass):
    """Pass wrapper around :func:`partition_arrays`."""

    OPTIONS = (PassOption("max-factor", type="int", attr="max_factor", default=64,
                          help="upper bound on any per-dimension partition factor"),)

    def __init__(self, part_factors: Optional[dict[str, Sequence[int]]] = None,
                 max_factor: int = 64):
        self.part_factors = part_factors
        self.max_factor = max_factor
        #: The index expressions the last :meth:`run` derived (see
        #: :func:`partition_arrays`).
        self.accesses: Optional[AccessTable] = None

    def run(self, op: Operation) -> None:
        self.accesses = AccessTable()
        partition_arrays(op, self.part_factors, self.max_factor, self.accesses)


# -- analysis -------------------------------------------------------------------------------


def _collect_memrefs(func_op: Operation) -> list[tuple[str, Value]]:
    """Every buffer of the function with the name ``part_factors`` knows it by.

    ``buffer_name`` is a label a front end may or may not attach; the
    fallback is the allocation's program-order index, which — unlike an
    object identity — is the same in every process and never collides.
    """
    memrefs: list[tuple[str, Value]] = []
    for argument in func_op.region(0).front.arguments:
        if isinstance(argument.type, MemRefType):
            memrefs.append((f"arg{argument.index}", argument))
    allocations = 0
    for op in func_op.walk():
        if op.name == "memref.alloc":
            name = op.get_attr("buffer_name", "") or f"buffer{allocations}"
            memrefs.append((name, op.result()))
            allocations += 1
    return memrefs


def _function_has_pipelined_loop(func_op: Operation) -> bool:
    return any(isinstance(op, AffineForOp) and is_pipelined(op) for op in func_op.walk())


def _access_groups(memref_value: Value, has_pipelined: bool,
                   accesses: AccessTable) -> dict[tuple, list[list[AffineExpr]]]:
    """The index expressions of a buffer's accesses, grouped by enclosing
    loop nest (the key).

    Accesses inside pipelined loops are preferred (they determine the needed
    bandwidth); if no loop of the function is pipelined every access counts.
    """
    groups: dict[tuple, list[list[AffineExpr]]] = {}
    for use in memref_value.uses:
        access = use.owner
        if not is_affine_access(access):
            continue
        loops, dim_map = accesses.nest(access)
        if has_pipelined and not any(is_pipelined(loop) for loop in loops):
            continue
        exprs = accesses.expressions(access, loops, dim_map)
        if exprs is not None:
            groups.setdefault(loops, []).append(exprs)
    return groups


def _derive_partition(memref_value: Value, max_factor: int, has_pipelined: bool,
                      accesses: AccessTable) -> Optional[list[tuple[str, int]]]:
    memref_type = memref_value.type
    if not isinstance(memref_type, MemRefType):
        return None
    rank = memref_type.rank
    best = [(PartitionKind.NONE, 1)] * rank

    for loops, group in _access_groups(memref_value, has_pipelined, accesses).items():
        for d in range(rank):
            # Distinct expressions in first-seen order.
            unique = list(dict.fromkeys(exprs[d] for exprs in group))
            accesses_count = len(unique)
            if accesses_count <= 1:
                continue
            max_distance = _max_index_distance(unique, len(loops))
            factor = min(accesses_count, memref_type.shape[d], max_factor)
            metric = accesses_count / max(1, max_distance)
            fashion = PartitionKind.CYCLIC if metric >= 1 else PartitionKind.BLOCK
            if factor > best[d][1]:
                best[d] = (fashion, factor)
    return best


def _max_index_distance(exprs: Sequence[AffineExpr], num_dims: int) -> int:
    """Largest ``index_m - index_n + 1`` over pairs with matching coefficients."""
    linearized = []
    for expr in exprs:
        decomposed = linearize(expr, num_dims)
        if decomposed is not None:
            linearized.append(decomposed)
    best = 1
    for i, (coeffs_a, const_a) in enumerate(linearized):
        for coeffs_b, const_b in linearized[i + 1:]:
            if coeffs_a == coeffs_b:
                best = max(best, abs(const_a - const_b) + 1)
    return best


# -- application -----------------------------------------------------------------------------


def _apply_partition(memref_value: Value, partition: Sequence[tuple[str, int]],
                     func_op: Operation) -> None:
    memref_type: MemRefType = memref_value.type
    new_type = memref_type.with_partition(partition)
    memref_value.type = new_type
    if isinstance(memref_value, BlockArgument) and isinstance(func_op, FuncOp):
        _refresh_function_type(func_op)
    elif not isinstance(memref_value, BlockArgument):
        # memref.alloc result: keep the op's result type in sync (same object).
        pass


def _refresh_function_type(func_op: FuncOp) -> None:
    input_types = [argument.type for argument in func_op.arguments]
    func_op.set_attr("function_type",
                     FunctionType(input_types, func_op.function_type.results))

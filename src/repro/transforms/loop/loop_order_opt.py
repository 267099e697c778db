"""The ``-affine-loop-order-opt`` pass (``perm-map`` parameter in Tab. II).

Loop permutation changes the distance of loop-carried memory dependencies.
The pass analyses the band's memory accesses, identifies which loops carry
dependences, and permutes those loops towards the outermost positions so
that the innermost (pipelined) loop is dependence-free whenever possible —
which is precisely what reduces the achievable initiation interval.

An explicit ``perm_map`` can also be supplied: element ``i`` gives the new
position of the ``i``-th loop (outermost = position 0), matching the paper's
convention.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.affine.dependence import MemoryAccess, loops_carrying_dependence
from repro.dialects.affine_ops import (
    AffineForOp,
    access_expressions,
    access_is_write,
    access_memref,
    band_dim_map,
    is_affine_access,
    perfect_loop_band,
)
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass, PassError, PassOption
from repro.ir.pass_registry import register_pass


def band_memory_accesses(band: Sequence[AffineForOp]) -> list[MemoryAccess]:
    """Collect the affine accesses of a band as :class:`MemoryAccess` records."""
    dim_map = band_dim_map(band)
    accesses: list[MemoryAccess] = []
    for op in band[-1].walk():
        if not is_affine_access(op):
            continue
        exprs = access_expressions(op, dim_map)
        if exprs is None:
            continue
        accesses.append(MemoryAccess(access_memref(op), tuple(exprs),
                                     access_is_write(op), op))
    return accesses


def compute_permutation(band: Sequence[AffineForOp]) -> list[int]:
    """Permutation map placing dependence-carrying loops outermost.

    Returns ``perm_map`` where ``perm_map[i]`` is the new position of loop
    ``i`` (the identity permutation if nothing needs to move).
    """
    accesses = band_memory_accesses(band)
    carrying = loops_carrying_dependence(accesses, len(band))
    carrying_order = [i for i in range(len(band)) if i in carrying]
    free_order = [i for i in range(len(band)) if i not in carrying]
    new_order = carrying_order + free_order  # new_order[p] = original loop at position p
    perm_map = [0] * len(band)
    for new_position, original in enumerate(new_order):
        perm_map[original] = new_position
    return perm_map


def permute_loop_band(band: Sequence[AffineForOp], perm_map: Sequence[int]) -> list[AffineForOp]:
    """Apply ``perm_map`` to a perfect band, returning the new band (outermost first)."""
    band = list(band)
    if sorted(perm_map) != list(range(len(band))):
        raise PassError(f"invalid permutation map {perm_map!r}")
    if list(perm_map) == list(range(len(band))):
        return band
    for loop in band:
        if not loop.has_constant_bounds():
            raise PassError("loop permutation requires constant bounds")
    _check_band_is_perfect(band, "loop permutation")

    body_ops = [op for op in band[-1].body.operations if op.name != "affine.yield"]
    outer_block = band[0].parent

    # new_band[p] mirrors the original loop that moves to position p.
    originals_by_new_position = [None] * len(band)
    for original_index, new_position in enumerate(perm_map):
        originals_by_new_position[new_position] = band[original_index]

    new_band: list[AffineForOp] = []
    for original in originals_by_new_position:
        new_loop = AffineForOp.constant_bounds(
            original.constant_lower_bound, original.constant_upper_bound, original.step)
        if new_band:
            new_band[-1].body.append(new_loop)
        else:
            outer_block.insert_before(band[0], new_loop)
        new_band.append(new_loop)

    for op in body_ops:
        op.detach()
        new_band[-1].body.append(op)
    for original, new_position in zip(band, perm_map):
        original.induction_variable.replace_all_uses_with(
            new_band[new_position].induction_variable)
    band[0].erase()
    return new_band


def optimize_loop_order(band: Sequence[AffineForOp],
                        perm_map: Optional[Sequence[int]] = None) -> list[AffineForOp]:
    """Permute ``band`` for minimal loop-carried dependence impact.

    With no explicit ``perm_map`` the permutation is derived from dependence
    analysis (dependence-carrying loops outermost).
    """
    band = list(band)
    if perm_map is None:
        perm_map = compute_permutation(band)
    return permute_loop_band(band, perm_map)


@register_pass("affine-loop-order-opt")
class AffineLoopOrderOptPass(FunctionPass):
    """Optimize the loop order of every outermost perfect band of a function."""

    OPTIONS = (PassOption("perm", type="int-list", attr="perm_map", default=None,
                          help="explicit permutation map; derived when omitted"),)

    def __init__(self, perm_map: Optional[Sequence[int]] = None):
        self.perm_map = list(perm_map) if perm_map is not None else None

    def run(self, op: Operation) -> None:
        from repro.dialects.affine_ops import outermost_loops

        for outer in outermost_loops(op):
            if outer.parent is None:
                continue
            band = perfect_loop_band(outer)
            perm = self.perm_map
            if perm is not None and len(perm) != len(band):
                continue
            try:
                optimize_loop_order(band, perm)
            except PassError:
                continue


def _check_band_is_perfect(band: Sequence[AffineForOp], transform: str) -> None:
    for outer, inner in zip(band, band[1:]):
        body_ops = [op for op in outer.body.operations if op.name != "affine.yield"]
        if len(body_ops) != 1 or body_ops[0] is not inner:
            raise PassError(f"{transform} requires a perfectly nested band "
                            "(run -affine-loop-perfectization first)")

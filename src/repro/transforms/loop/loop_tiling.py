"""The ``-affine-loop-tile`` pass (``tile-sizes`` parameter in Tab. II).

Tiles a perfect affine loop band: each loop of the band becomes a *tile*
(inter-tile) loop stepping by the tile size, and a *point* (intra-tile) loop
iterating inside the tile.  Following the paper's DSE flow, every point loop
is placed in the innermost region so it can later be fully unrolled to
increase computation parallelism.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.affine.expr import dim as dim_expr
from repro.affine.map import AffineMap
from repro.dialects.affine_ops import AffineApplyOp, AffineForOp, perfect_loop_band
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass, PassError, PassOption
from repro.ir.pass_registry import register_pass
from repro.transforms.loop.loop_order_opt import _check_band_is_perfect


def tile_loop_band(band: Sequence[AffineForOp],
                   tile_sizes: Sequence[int]) -> tuple[list[AffineForOp], list[AffineForOp]]:
    """Tile a perfect band with the given per-loop tile sizes.

    Returns ``(tile_loops, point_loops)`` — the new inter-tile band (outermost
    first) and the intra-tile loops nested inside it.  Tile sizes are clamped
    to each loop's trip count and adjusted down to the nearest divisor so the
    transform stays exact.  A tile size of 1 leaves that loop untiled.
    """
    band = list(band)
    if len(tile_sizes) != len(band):
        raise PassError("one tile size per band loop is required")
    for loop in band:
        if not loop.has_constant_bounds():
            raise PassError("loop tiling requires constant bounds "
                            "(run -remove-variable-bound first)")
        if loop.step != 1:
            raise PassError("loop tiling requires unit-step loops")
    _check_band_is_perfect(band, "loop tiling")

    adjusted_sizes = [
        _adjust_tile_size(loop.trip_count(), size) for loop, size in zip(band, tile_sizes)]

    outer_block = band[0].parent
    innermost_body_ops = [op for op in band[-1].body.operations if op.name != "affine.yield"]

    # Build the inter-tile loops.
    tile_loops: list[AffineForOp] = []
    for loop, tile in zip(band, adjusted_sizes):
        step = tile if tile > 1 else 1
        new_loop = AffineForOp.constant_bounds(
            loop.constant_lower_bound, loop.constant_upper_bound, step)
        if tile_loops:
            tile_loops[-1].body.append(new_loop)
        else:
            outer_block.insert_before(band[0], new_loop)
        tile_loops.append(new_loop)

    # Build the intra-tile (point) loops inside the innermost tile loop.  Point
    # loops iterate over [0, tile) so their bounds stay constant; the original
    # iteration index is reconstructed as ``tile_iv + point_iv``.
    point_loops: list[AffineForOp] = []
    insertion_parent = tile_loops[-1]
    combined_index: list[tuple[AffineForOp, AffineForOp, AffineForOp]] = []
    iv_replacements: dict = {}
    for original, tile_loop, tile in zip(band, tile_loops, adjusted_sizes):
        if tile <= 1:
            iv_replacements[original.induction_variable] = tile_loop.induction_variable
            continue
        point_loop = AffineForOp.constant_bounds(0, tile)
        insertion_parent.body.append(point_loop)
        insertion_parent = point_loop
        point_loops.append(point_loop)
        combined_index.append((original, tile_loop, point_loop))

    # Move the body into the innermost new loop and rewire induction variables.
    target_body = insertion_parent.body
    sum_map = AffineMap(2, 0, [dim_expr(0) + dim_expr(1)])
    for original, tile_loop, point_loop in combined_index:
        apply_op = AffineApplyOp(sum_map, [tile_loop.induction_variable,
                                           point_loop.induction_variable])
        target_body.append(apply_op)
        iv_replacements[original.induction_variable] = apply_op.result()
    for op in innermost_body_ops:
        target_body.append(op)
    for old_iv, new_iv in iv_replacements.items():
        old_iv.replace_all_uses_with(new_iv)

    band[0].erase()
    return tile_loops, point_loops


@register_pass("affine-loop-tile", aliases=("loop-tiling",))
class AffineLoopTilePass(FunctionPass):
    """Tile every outermost perfect band of a function with fixed tile sizes."""

    OPTIONS = (
        PassOption("sizes", type="int-list", attr="tile_sizes", default=None,
                   help="per-loop tile sizes (padded with 1s)"),
        PassOption("default-size", type="int", attr="default_size", default=2,
                   help="tile size used when 'sizes' is omitted"),
    )

    def __init__(self, tile_sizes: Optional[Sequence[int]] = None, default_size: int = 2):
        self.tile_sizes = list(tile_sizes) if tile_sizes is not None else None
        self.default_size = default_size

    def run(self, op: Operation) -> None:
        from repro.dialects.affine_ops import outermost_loops

        for outer in outermost_loops(op):
            if outer.parent is None:
                continue
            band = perfect_loop_band(outer)
            sizes = self.tile_sizes or [self.default_size] * len(band)
            sizes = list(sizes)[: len(band)]
            sizes += [1] * (len(band) - len(sizes))
            try:
                tile_loop_band(band, sizes)
            except PassError:
                continue


# -- helpers ----------------------------------------------------------------------------------


def _adjust_tile_size(trip_count: int, requested: int) -> int:
    requested = max(1, min(int(requested), trip_count))
    while trip_count % requested != 0:
        requested -= 1
    return requested

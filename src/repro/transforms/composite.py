"""Composite registered passes used by the compilation flows.

These passes bundle the data-dependent transform sequences that the DSE and
the DNN flow apply per function, so that *every* flow — hand-written
pipelines, the DSE runtime's workers and the CLI — can be
expressed as one textual pipeline built from the registry:

* ``design-point-prefix`` + ``design-point-suffix`` reproduce one
  :class:`KernelDesignPoint` of the paper's kernel DSE (Tab. II parameters):
  the structural half the incremental evaluator snapshots, and the
  point-specific half run per evaluation, which executes
  :func:`plan_design_point` — the plan program identity is keyed on.
* ``dnn-loop-opt`` is the per-stage loop/directive optimization of the DNN
  flow (loop-order optimization, unrolling towards a factor, pipelining).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dialects.affine_ops import AffineForOp, outermost_loops, perfect_loop_band
from repro.ir.operation import Operation
from repro.ir.pass_manager import FunctionPass, PassError, PassOption
from repro.ir.pass_registry import register_pass
from repro.transforms.directive.pipelining import pipeline_loop
from repro.transforms.loop.loop_order_opt import optimize_loop_order, permute_loop_band
from repro.transforms.loop.loop_tiling import _adjust_tile_size, tile_loop_band
from repro.transforms.loop.loop_unroll import fully_unroll, unroll_loop
from repro.transforms.loop.perfectization import perfectize_band
from repro.transforms.loop.remove_variable_bound import remove_variable_bounds


def run_design_point_prefix(func_op: Operation, perfectize: bool,
                            rvb: bool) -> None:
    """The *structural prefix* of one design point: perfectize + rvb.

    Only the two boolean knobs participate, so a kernel has at most four
    distinct prefixes — which is what makes the post-prefix IR worth caching
    (see :mod:`repro.dse.incremental`).
    """
    outer = design_nest(func_op)
    if outer is None:
        return
    if perfectize:
        perfectize_band(outer)
    if rvb:
        remove_variable_bounds(func_op)


def design_nest(func_op: Operation) -> Optional[AffineForOp]:
    """The loop nest a kernel design point acts on: the first outermost
    ``affine.for`` of ``func_op``, or None when it has no loop nest.

    The one answer every tier reads — the design space sizes its band, the
    prefix and suffix transform it, program identity plans on it, and a
    sweep skips a function whose answer is None.  Other nests of the
    function are left as they are (``dnn-loop-opt`` is the flow that treats
    every nest).
    """
    loops = outermost_loops(func_op)
    return loops[0] if loops else None


def band_shape(band: Sequence[AffineForOp]
               ) -> tuple[tuple[Optional[int], int], ...]:
    """Per loop, outermost first: constant trip count (None with variable
    bounds) and step — all of a band that :func:`plan_design_point` reads."""
    return tuple((loop.trip_count(), loop.step) for loop in band)


def plan_design_point(shape: Sequence[tuple[Optional[int], int]],
                      perm: Sequence[int], tiles: Sequence[int]
                      ) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """What :func:`stage_design_point` does to a perfect band of ``shape``
    for the knobs ``perm`` and ``tiles``: ``(perm, sizes, tile)``.

    A knob the band cannot take is dropped rather than failing — the
    estimator sees the weaker design, which is how unprofitable points lose.
    Each rule is the precondition of the transform it guards.  The
    permutation applied is the requested one when it is a permutation of the
    band and every loop has constant bounds (:func:`permute_loop_band`), else
    the identity.  ``sizes`` are the first ``len(shape)`` tile sizes padded
    with 1; the band is tiled (``tile``) when one exceeds 1 and every loop of
    the *permuted* band has constant bounds and unit step
    (:func:`tile_loop_band`), each size then lowered to a divisor of its trip
    count, else all are 1.  Sizes that all lower to 1 still rebuild the band,
    hence ``tile``.  A pure function: one post-prefix IR and one plan are one
    program.
    """
    depth = len(shape)
    identity = tuple(range(depth))
    perm = tuple(perm)
    if sorted(perm) != list(identity) \
            or any(trip is None for trip, _ in shape):
        perm = identity
    permuted = [shape[perm.index(position)] for position in identity]
    sizes = tuple(tiles[:depth]) + (1,) * (depth - len(tiles))
    tile = any(size > 1 for size in sizes) and all(
        trip is not None and step == 1 for trip, step in permuted)
    sizes = tuple(_adjust_tile_size(trip, size) if tile else 1
                  for (trip, _), size in zip(permuted, sizes))
    return perm, sizes, tile


def knobs_not_applied(plan: tuple, perm: Sequence[int], tiles: Sequence[int]
                      ) -> tuple[bool, bool]:
    """Whether ``plan`` drops the requested permutation, and whether it
    changes a requested tile size (a size of 1 requests nothing)."""
    planned_perm, sizes, _ = plan
    pad = (1,) * max(len(sizes), len(tiles))
    return (tuple(perm) not in (tuple(range(len(perm))), planned_perm),
            (sizes + pad)[:len(pad)] != (tuple(tiles) + pad)[:len(pad)])


def stage_design_point(func_op: Operation, perm: Sequence[int],
                       tiles: Sequence[int]) -> Optional[AffineForOp]:
    """Permute and tile the band: everything of the suffix but the pipelining.

    Executes :func:`plan_design_point`, so a transform is called exactly when
    it applies: a :class:`PassError` out of here is a bug, not a skipped knob.
    Returns the loop the design point pipelines next, or None when the
    function has no loop nest.  What is left of an evaluation reads the knobs
    staged here through the IR alone (README "Program identity").
    """
    outer = design_nest(func_op)
    if outer is None:
        return None
    band = perfect_loop_band(outer)
    perm, sizes, tile = plan_design_point(band_shape(band), perm, tiles)
    if perm != tuple(range(len(band))):
        band = permute_loop_band(band, perm)
    if tile:
        band, _ = tile_loop_band(band, sizes)
    return band[-1]


def run_design_point_suffix(func_op: Operation, perm: Sequence[int],
                            tiles: Sequence[int], ii: int
                            ) -> Optional[AffineForOp]:
    """The *point-specific suffix*: :func:`stage_design_point`, then pipeline
    the loop it returns.

    Returns the loop that now carries the pipeline directive — the only
    place ``ii`` went — or None when there is none (no loop nest, or the
    loop could not be legalized).
    """
    target = stage_design_point(func_op, perm, tiles)
    if target is None:
        return None
    try:
        pipeline_loop(target, ii)
    except PassError:
        return None
    return target


@register_pass("design-point-prefix")
class DesignPointPrefixPass(FunctionPass):
    """The structural (perfectize + rvb) prefix of a kernel design point.

    Points sharing the two boolean knobs share this pass's output exactly,
    which the incremental evaluator exploits by snapshotting the post-prefix
    IR (:mod:`repro.dse.incremental`).
    """

    OPTIONS = (
        PassOption("perfectize", type="bool", default=False,
                   help="run loop perfectization first"),
        PassOption("rvb", type="bool", default=False,
                   help="remove variable loop bounds"),
    )

    def __init__(self, perfectize: bool = False, rvb: bool = False):
        self.perfectize = perfectize
        self.rvb = rvb

    def run(self, func_op: Operation) -> None:
        run_design_point_prefix(func_op, self.perfectize, self.rvb)


@register_pass("design-point-suffix")
class DesignPointSuffixPass(FunctionPass):
    """The point-specific (permute, tile, pipeline) suffix of a kernel design
    point, run on prefix-transformed IR."""

    OPTIONS = (
        PassOption("perm", type="int-list", default=(),
                   help="loop permutation map (applied when it fits the band)"),
        PassOption("tiles", type="int-list", default=(),
                   help="per-loop tile sizes (1 leaves a loop untiled)"),
        PassOption("ii", type="int", default=1,
                   help="pipeline target initiation interval"),
    )

    def __init__(self, perm: Sequence[int] = (), tiles: Sequence[int] = (),
                 ii: int = 1):
        self.perm = tuple(perm)
        self.tiles = tuple(tiles)
        self.ii = ii
        #: The loop the last :meth:`run` pipelined (see
        #: :func:`run_design_point_suffix`).
        self.pipelined: Optional[AffineForOp] = None

    def run(self, func_op: Operation) -> None:
        self.pipelined = run_design_point_suffix(func_op, self.perm,
                                                 self.tiles, self.ii)


@register_pass("dnn-loop-opt")
class DNNLoopOptPass(FunctionPass):
    """Loop + directive optimization of one lowered (loop-level) DNN stage.

    Each lowered loop nest is first loop-order optimized (reduction loops are
    permuted outwards so the pipelined loop carries no dependence), then the
    innermost loops are unrolled towards the requested factor, and the
    innermost remaining loop is pipelined.
    """

    OPTIONS = (PassOption("factor", type="int", default=1,
                          help="unroll factor the loop nests are driven towards"),)

    def __init__(self, factor: int = 1):
        self.factor = factor

    def run(self, func_op: Operation) -> None:
        for outer in outermost_loops(func_op):
            if outer.parent is None:
                continue
            band = perfect_loop_band(outer)
            try:
                band = optimize_loop_order(band)
            except PassError:
                pass
            target = unroll_towards_factor(band[-1], self.factor)
            if target is None:
                continue
            try:
                pipeline_loop(target, 1)
            except PassError:
                continue


def unroll_towards_factor(innermost: AffineForOp, factor: int) -> Optional[AffineForOp]:
    """Unroll a loop nest bottom-up until roughly ``factor`` copies exist.

    Fully unrolls inner loops while their trip count fits in the remaining
    factor, then partially unrolls the next enclosing loop.  Returns the loop
    that should be pipelined afterwards.
    """
    loop = innermost
    remaining = max(1, factor)
    while remaining > 1 and loop is not None:
        trip = loop.trip_count()
        if trip is None:
            break
        parent = loop.parent_op
        parent_loop = parent if isinstance(parent, AffineForOp) else None
        if trip <= remaining and parent_loop is not None:
            fully_unroll(loop)
            remaining = max(1, -(-remaining // max(1, trip)))
            loop = parent_loop
        else:
            unroll_loop(loop, remaining)
            remaining = 1
    return loop

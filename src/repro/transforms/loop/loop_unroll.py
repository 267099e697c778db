"""The ``-affine-loop-unroll`` pass.

Partial unrolling duplicates the loop body ``factor`` times (substituting
``iv + k*step`` for the induction variable) and multiplies the step; full
unrolling replaces the loop with one copy of the body per iteration, with the
induction variable replaced by a constant.  Full unrolling is the mechanism
behind both the intra-tile unrolling of the DSE flow and the pipeline
legalization of ``-loop-pipelining``.

One routine expands a loop, for one level (:func:`fully_unroll`) or for the
whole nest below it (:func:`fully_unroll_nested`).  The nested form copies
every operation that is not a loop at most once, under the constants of all
the enclosing iterations at a time, and checks every loop before it changes
anything.

Either form judges an ``affine.if`` without results before it copies it, on
the operands the copy would read, with the verdict function and the range
analysis of ``-simplify-affine-if``: the branch it takes is copied in its
place, the branch it drops is never built, and one it cannot judge is copied
whole (on what the flows build, the pass cannot judge it either).  What fed
only the branch an iteration drops is not copied either: the iteration
judges the ``affine.if`` before the first such operation, when its operands
are defined by then.  And before the copies go
into the block, the expansion drops every one that is dead and, in the
nested form, merges every one into the first copy equal to it — what the
cleanup's first ``canonicalize`` and ``cse`` deleted untouched.

The guarantee, which the tests keep against this expansion with no copy
pruned (frozen there): raw, the unpruned IR once a plain reference prune
has dropped its dead copies and merged its equal ones, operation for
operation and use for use; after the cleanup tail (``CLEANUP_PIPELINE``),
the IR and the use order of every value the unpruned expansion leaves
after the nine-pass tail that preceded it.  The one-level form merges
nothing; a load of its copies whose indices only ``cse`` merges still folds
in the tail's one store-forwarding round, whose scans address an access by
what ``cse`` will merge.
"""

from __future__ import annotations

import math
from typing import Optional

from repro import obs
from repro.affine.analysis import condition_verdict
from repro.affine.expr import dim as dim_expr
from repro.affine.map import AffineMap
from repro.dialects import arith
from repro.dialects.affine_ops import (
    AffineApplyOp,
    AffineForOp,
    constant_bound_domain,
    index_value_range,
)
from repro.ir.operation import SIDE_EFFECT_OPS, Operation
from repro.ir.pass_manager import FunctionPass, PassError, PassOption
from repro.ir.pass_registry import register_pass
from repro.ir.types import index
from repro.ir.value import OpResult
from repro.transforms.cleanup.canonicalize import is_dead
from repro.transforms.cleanup.cse import merge_duplicates


def unroll_loop(loop: AffineForOp, factor: int) -> Optional[list[Operation]]:
    """Unroll ``loop`` by ``factor``.

    Returns the list of operations that replaced the loop when it was fully
    unrolled, or None when the loop was partially unrolled in place.  The
    factor is clamped to the trip count; a factor that does not divide the
    trip count is reduced to the largest divisor (keeping the transform
    exact, as required for predictable QoR estimation).
    """
    if factor <= 1:
        return None
    trip = loop.trip_count()
    if trip is None:
        raise PassError("cannot unroll a loop with variable bounds")
    if trip == 0:
        return []
    factor = min(factor, trip)
    while trip % factor != 0:
        factor -= 1
    if factor == trip:
        return _replace_by_expansion(loop, nested=False)
    _partially_unroll(loop, factor)
    return None


def fully_unroll(loop: AffineForOp) -> list[Operation]:
    """Fully unroll ``loop`` (which must have constant bounds).

    One level only: a loop nested in the body is copied per iteration, as a
    loop.  Returns the operations that replaced ``loop``.
    """
    if loop.trip_count() is None:
        raise PassError("cannot fully unroll a loop with variable bounds")
    return _replace_by_expansion(loop, nested=False)


def fully_unroll_nested(root: Operation) -> int:
    """Fully unroll every ``affine.for`` nested inside ``root``.

    ``root`` itself is not unrolled.  Returns the number of loops unrolled
    (distinct loops of the IR as it was, not copies made on the way).

    All or nothing: every nested loop is checked before the first mutation,
    so a variable-bound loop raises :class:`PassError` with the IR untouched.

    Each outermost nested loop is expanded over the product of its nest's
    iterations in one pass — every operation that is not a loop is copied
    at most once, under the constants of all the enclosing iterations, and
    a branch an ``affine.if`` drops under them, or what fed only that
    branch, not at all — and the result is, once cleaned up, what unrolling
    the loops one at a time from the innermost outwards leaves (the module
    docstring has the exact statement, the tests the oracle): the same
    order, the same induction constants, the same ``affine.apply``s folded.
    """
    loops = [op for op in root.walk()
             if op is not root and isinstance(op, AffineForOp)]
    for loop in loops:
        if loop.trip_count() is None:
            raise PassError("cannot fully unroll a loop with variable bounds")
    for loop in loops:
        # A loop inside an expanded one went with it, ancestors intact.
        if _is_outermost_under(loop, root):
            _replace_by_expansion(loop, nested=True)
    return len(loops)


def _is_outermost_under(loop: AffineForOp, root: Operation) -> bool:
    for ancestor in loop.ancestors():
        if ancestor is root:
            break
        if isinstance(ancestor, AffineForOp):
            return False
    return True


@register_pass("affine-loop-unroll", aliases=("loop-unroll",))
class AffineLoopUnrollPass(FunctionPass):
    """Unroll innermost loops by a fixed factor (Tab. II: ``unroll-factor``)."""

    OPTIONS = (PassOption("factor", type="int", attr="unroll_factor", default=4,
                          help="unroll factor applied to every innermost loop"),)

    def __init__(self, unroll_factor: int = 4):
        self.unroll_factor = unroll_factor

    def run(self, op: Operation) -> None:
        from repro.dialects.affine_ops import innermost_loops

        for loop in innermost_loops(op):
            if loop.parent is None:
                continue
            unroll_loop(loop, self.unroll_factor)


# -- implementation ------------------------------------------------------------------------


#: ``copy_region_op``'s verdict when the iteration asked for none.
_UNJUDGED = object()


def _replace_by_expansion(loop: AffineForOp, nested: bool) -> list[Operation]:
    new_ops: list[Operation] = []
    expansion = _Expansion(loop, nested)
    expansion.expand(loop, {}, new_ops)
    new_ops = expansion.prune(new_ops)
    loop.parent.insert_all_after(loop, new_ops)
    loop.erase()
    expansion.report()
    return new_ops


class _Expansion:
    """One loop being replaced by its iterations, and what every copy made
    on the way shares."""

    __slots__ = ("nested", "value_map", "single_ivs", "site",
                 "outside_ranges", "verdicts", "judged", "feeders", "skipped",
                 "dead", "merged")

    def __init__(self, loop: AffineForOp, nested: bool):
        #: Expand the loops below in place of copying them.
        self.nested = nested
        #: What copies are made under: every value replaced so far.
        self.value_map: dict = {}
        #: Memo of :func:`_single_iteration_iv_value`.  Enclosing loops keep
        #: their bounds throughout, so it holds for every copy.
        self.single_ivs: dict = {}
        #: The constant-bound loops every copy ends up under.  The copies
        #: are in no block until the expansion is over, so a range analysis
        #: is handed this domain instead of looking it up.
        self.site = constant_bound_domain(loop)
        #: Range of an ``affine.if`` operand the expansion did not replace.
        self.outside_ranges: dict = {}
        #: (source ``affine.if``, operand ranges) -> verdict.  The source op
        #: hashes by identity: no integer set is hashed per copy.
        self.verdicts: dict = {}
        #: ``affine.if``s judged, by verdict.
        self.judged = {True: 0, False: 0, None: 0}
        #: Memo of :func:`_branch_feeders`, by loop.
        self.feeders: dict = {}
        #: Copies not made, dead copies dropped and copies merged.
        self.skipped = self.dead = self.merged = 0

    def report(self) -> None:
        if obs.active() is not None:
            obs.counter("unroll.if.taken", self.judged[True])
            obs.counter("unroll.if.dropped", self.judged[False])
            obs.counter("unroll.if.undecided", self.judged[None])
            obs.counter("unroll.skipped.feeders", self.skipped)
            obs.counter("unroll.pruned.dead", self.dead)
            obs.counter("unroll.pruned.merged", self.merged)

    def prune(self, ops: list[Operation]) -> list[Operation]:
        """``ops`` short of what the cleanup's first round would delete.

        Backwards, every copy :func:`~repro.transforms.cleanup.canonicalize.is_dead`
        drops its operand uses and goes, so what fed only it goes too; then,
        in the nested form, forwards,
        :func:`~repro.transforms.cleanup.cse.merge_duplicates` merges every
        copy into its first equal, moving its uses.  Neither looks inside a
        region op, and ops in the block already are left to the cleanup.

        The one-level form merges nothing: its copies are most often copied
        again (the enclosing loop unrolled next, or partially), and a copy
        registers the uses it makes in body order, where ``cse`` would have
        left a merged value's uses survivor first — the same IR, in another
        use order.
        """
        kept = []
        for op in reversed(ops):
            if is_dead(op):
                op.drop_operand_uses()
            else:
                kept.append(op)
        self.dead += len(ops) - len(kept)
        kept.reverse()
        if not self.nested:
            return kept
        merged = set()
        for op in merge_duplicates(kept):
            op.drop_operand_uses()
            merged.add(op)
        if not merged:
            return kept
        self.merged += len(merged)
        return [op for op in kept if op not in merged]

    def expand(self, loop: AffineForOp, constants: dict,
               new_ops: list[Operation]) -> None:
        """Append one copy of ``loop``'s body per iteration to ``new_ops``.

        ``constants`` is the part of the value map an ``affine.apply`` may
        fold with — the induction constants and folded applies of the loops
        between the apply and the nearest region op that is not a loop.
        Only direct children of a loop body fold: the canonicalizer would
        fold them anyway (their operands are constants after iv
        substitution) by inserting a constant exactly here, so emitting the
        constant directly produces byte-identical post-canonicalize IR while
        skipping the clone, the fold rewrite and the dead-apply erasure for
        every iteration.
        """
        value_map, single_ivs = self.value_map, self.single_ivs
        iv = loop.induction_variable
        body = [op for op in loop.body.operations if op.name != "affine.yield"]
        if loop not in self.feeders:
            self.feeders[loop] = _branch_feeders(loop.body, body)
        feeders = self.feeders[loop]
        verdicts: dict = {}
        for iteration_value in range(loop.constant_lower_bound,
                                     loop.constant_upper_bound, loop.step):
            constant = arith.ConstantOp(iteration_value, index)
            new_ops.append(constant)
            value_map[iv] = constants[iv] = constant.result()
            for body_op in body:
                feeder = feeders.get(body_op) if feeders is not None else None
                if feeder is not None:
                    guard, needed, first = feeder
                    if first:
                        verdicts[guard] = self.verdict(guard)
                    if verdicts[guard] is (not needed):
                        self.skipped += 1
                        continue
                if body_op.name == "affine.apply":
                    folded = _fold_cloned_apply(body_op, constants, single_ivs)
                    if folded is not None:
                        value_map[body_op.result()] = folded.result()
                        new_ops.append(folded)
                        continue
                if not body_op.regions:
                    new_ops.append(body_op.clone(value_map))
                elif not isinstance(body_op, AffineForOp):
                    self.copy_region_op(body_op, new_ops,
                                        verdicts.pop(body_op, _UNJUDGED))
                elif self.nested:
                    self.expand(body_op, constants, new_ops)
                else:
                    new_ops.append(body_op.clone(value_map))

    def copy_region_op(self, op: Operation, new_ops: list[Operation],
                       verdict=_UNJUDGED) -> None:
        """Append the copy of a region op that is not a loop.

        An ``affine.if`` without results is judged first, on its operands as
        the copy would read them (``verdict``, when the iteration judged it
        before its feeders): decided, the operations of the branch it takes
        are copied in its place (none when that branch is missing) and the
        other branch is never built; undecided, it is copied whole.
        Nothing folds across ``op`` either way: unrolling from the innermost
        loop outwards copied it whole once the loops inside were gone, so an
        apply in it saw constants for the loops inside ``op`` only.
        """
        if op.name == "affine.if" and not op.results:
            if verdict is _UNJUDGED:
                verdict = self.verdict(op)
            self.judged[verdict] += 1
            if verdict is not None:
                branch = op.then_block if verdict else op.else_block
                if branch is not None:
                    self.copy_block(branch, new_ops, inlined=True)
                return
        from repro.ir.block import Block

        value_map = self.value_map
        new_op = op.clone_without_regions(value_map)
        for region in op.regions:
            new_region = new_op.add_region()
            for block in region.blocks:
                new_block = Block()
                new_region.add_block(new_block)
                for argument in block.arguments:
                    value_map[argument] = new_block.add_argument(argument.type)
                copies: list[Operation] = []
                self.copy_block(block, copies)
                for copy in copies:
                    new_block.append(copy)
        new_ops.append(new_op)

    def copy_block(self, block, new_ops: list[Operation],
                   inlined: bool = False) -> None:
        """Append copies of the operations of ``block``, a block of a region
        op that is not a loop; ``inlined``, short of the ``affine.yield``
        that ends a branch."""
        value_map = self.value_map
        for op in block.operations:
            if not op.regions:
                if not (inlined and op.name == "affine.yield"):
                    new_ops.append(op.clone(value_map))
            elif not isinstance(op, AffineForOp):
                self.copy_region_op(op, new_ops)
            elif self.nested:
                self.expand(op, {}, new_ops)
            else:
                new_ops.append(op.clone(value_map))

    def verdict(self, if_op: Operation) -> Optional[bool]:
        """:func:`~repro.affine.analysis.condition_verdict` of ``if_op`` on
        its operands under the value map: exact on induction constants,
        folded applies and single-iteration ivs, and bounded by the range
        analysis of ``-simplify-affine-if`` over :attr:`site` for
        anything else."""
        value_map, outside = self.value_map, self.outside_ranges
        ranges = []
        for use in if_op._operands:
            source = use.value
            value = value_map.get(source, source)
            if value is not source:
                value_range = index_value_range(value, self.site)
            elif value in outside:
                value_range = outside[value]
            else:
                only = _single_iteration_iv_value(value)
                value_range = outside[value] = (only, only + 1) \
                    if only is not None \
                    else index_value_range(value, self.site)
            if value_range is None:
                return None
            ranges.append(value_range)
        key = (if_op, *ranges)
        if key not in self.verdicts:
            self.verdicts[key] = condition_verdict(
                if_op.get_attr("condition"), ranges)
        return self.verdicts[key]


def _branch_feeders(block, body: list[Operation]) -> Optional[dict]:
    """The operations of ``body`` (``block``'s, short of its terminator)
    that an iteration may not need, or None when there are none.

    By operation, ``(guard, needed, first)``: every use of it lies in one
    branch of ``guard``, a result-less ``affine.if`` of ``body`` — the then
    branch when ``needed`` is True, the else branch when it is False — or in
    other such operations of that branch.  A copy the iteration makes of it
    would be dead once ``guard`` is judged ``not needed``.  ``first`` marks
    the first of them, where the iteration judges ``guard``: only guards
    whose operands are all defined before it have any.  Only operations
    :func:`~repro.transforms.cleanup.canonicalize.is_dead` erases once
    unused count.
    """
    guards = [op for op in body if op.name == "affine.if" and not op.results]
    if not guards:
        return None
    position = {op: number for number, op in enumerate(body)}
    feeders = {}
    for guard in guards:
        fed: dict = {}
        for op in reversed(body[:position[guard]]):
            if not op.regions and op.results and op.name not in SIDE_EFFECT_OPS:
                branch = _only_branch(op, guard, fed, block)
                if branch is not None:
                    fed[op] = branch
        if not fed:
            continue
        first = min(position[op] for op in fed)
        if any(isinstance(use.value, OpResult)
               and position.get(use.value.operation, -1) >= first
               for use in guard._operands):
            continue
        for op, branch in fed.items():
            feeders[op] = (guard, branch, position[op] == first)
    return feeders or None


def _only_branch(op: Operation, guard: Operation, fed: dict,
                 block) -> Optional[bool]:
    """True (then) or False (else) when every use of ``op`` lies in that
    branch of ``guard`` or in an operation of ``fed`` feeding it; None
    otherwise (or when ``op`` has no use)."""
    branch = None
    for result in op.results:
        for use in result._uses.values():
            where = fed.get(use.owner)
            if where is None:
                where = _branch_of(use.owner, guard, block)
            if where is None or (branch is not None and where is not branch):
                return None
            branch = where
    return branch


def _branch_of(op: Operation, guard: Operation, block) -> Optional[bool]:
    """True when ``op`` lies in the then branch of ``guard``, False in its
    else branch, None elsewhere; ``guard`` lies in ``block``."""
    current = op.parent
    while current is not None and current is not block:
        holder = current.parent.parent
        if holder is guard:
            return current is guard.then_block
        current = holder.parent
    return None


def _fold_cloned_apply(apply_op: Operation, constants: dict,
                       single_ivs: dict) -> Optional[Operation]:
    """The constant an unrolled ``affine.apply`` copy folds to (or None).

    Returns a fresh ``arith.constant`` — and enters it in ``constants`` as
    the apply's result — when every operand is constant under ``constants``;
    chains across folds, so applies feeding applies collapse in one
    unrolling.
    """
    values = []
    for use in apply_op._operands:
        operand = constants.get(use.value, use.value)
        value = arith.constant_value(operand)
        if value is None:
            if operand not in single_ivs:
                single_ivs[operand] = _single_iteration_iv_value(operand)
            value = single_ivs[operand]
            if value is None:
                return None
        values.append(int(value))
    folded = apply_op.get_attr("map").evaluate(values)[0]
    constant = arith.ConstantOp(folded, apply_op.result().type)
    constants[apply_op.result()] = constant.result()
    return constant


def _single_iteration_iv_value(value) -> Optional[int]:
    """The only value a single-iteration loop's iv can take (or None).

    The canonicalizer substitutes exactly this constant when it promotes the
    trip-1 loop, so folding with it early cannot change the final IR.
    """
    from repro.ir.value import BlockArgument

    if not isinstance(value, BlockArgument):
        return None
    region = value.block.parent
    loop = region.parent if region is not None else None
    if not isinstance(loop, AffineForOp) or value is not loop.induction_variable:
        return None
    if loop.trip_count() == 1 and loop.has_constant_lower_bound():
        return loop.constant_lower_bound
    return None


def _partially_unroll(loop: AffineForOp, factor: int) -> None:
    step = loop.step
    original_ops = [op for op in loop.body.operations if op.name != "affine.yield"]
    iv = loop.induction_variable
    anchor = original_ops[-1] if original_ops else None
    for k in range(1, factor):
        offset_map = AffineMap(1, 0, [dim_expr(0) + k * step])
        apply_op = AffineApplyOp(offset_map, [iv])
        if anchor is None:
            loop.body.append(apply_op)
        else:
            loop.body.insert_after(anchor, apply_op)
        anchor = apply_op
        value_map = {iv: apply_op.result()}
        for body_op in original_ops:
            clone = body_op.clone(value_map)
            loop.body.insert_after(anchor, clone)
            anchor = clone
    loop.set_step(step * factor)

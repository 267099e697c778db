"""Tests for the loop-level transform passes (perfectization, RVB, order, tiling, unroll)."""

import collections
import contextlib
import dataclasses
import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ir, obs
from repro.affine.analysis import condition_verdict
from repro.affine.expr import dim
from repro.affine.map import AffineMap
from repro.affine.set import IntegerSet
from repro.dialects import arith, func
from repro.dialects.affine_ops import (
    AffineApplyOp,
    AffineForOp,
    AffineIfOp,
    AffineLoadOp,
    AffineStoreOp,
    AffineYieldOp,
    constant_bound_domain,
    index_value_range,
    loop_band_from,
    outermost_loops,
    perfect_loop_band,
)
from repro.dse.apply import CLEANUP_PIPELINE, apply_design_point
from repro.dse.space import KernelDesignSpace, ir_digest
from repro.ir.block import Block
from repro.ir.builder import Builder
from repro.ir.interpreter import interpret_kernel
from repro.ir.operation import Operation
from repro.ir.pass_manager import PassError
from repro.ir.pass_registry import build_pipeline_cached
from repro.ir.printer import print_op
from repro.ir.types import MemRefType, f32, index
from repro.kernels import KERNEL_NAMES
from repro.pipeline import compile_kernel
from repro.transforms import (
    canonicalize,
    fully_unroll,
    optimize_loop_order,
    perfectize_band,
    permute_loop_band,
    remove_variable_bounds,
    tile_loop_band,
    unroll_loop,
)
from repro.transforms.composite import (
    run_design_point_prefix,
    run_design_point_suffix,
    stage_design_point,
)
from repro.transforms.directive import pipelining
from repro.transforms.loop.loop_order_opt import compute_permutation
from repro.transforms.cleanup.simplify_affine_if import _evaluate_condition
from repro.transforms.loop import loop_unroll
from repro.transforms.loop.loop_unroll import (
    _fold_cloned_apply,
    _single_iteration_iv_value,
    fully_unroll_nested,
)

from cleanups import PARENT_TAIL, registered
from test_interpreter_and_kernels import assert_computes_the_reference

from conftest import (
    GEMM_SOURCE,
    SYRK_SOURCE,
    compile_source,
    random_array,
    reference_gemm,
    reference_syrk,
)


def run_syrk(module, seed=0, alpha=1.5, beta=0.5):
    C = random_array((16, 16), seed=seed)
    A = random_array((16, 8), seed=seed + 1)
    expected = reference_syrk(alpha, beta, C, A)
    interpret_kernel(module, "syrk", {"C": C, "A": A}, {"alpha": alpha, "beta": beta})
    return C, expected


def run_gemm(module, seed=0, alpha=2.0, beta=0.5):
    C = random_array((8, 8), seed=seed)
    A = random_array((8, 8), seed=seed + 1)
    B = random_array((8, 8), seed=seed + 2)
    expected = reference_gemm(alpha, beta, C, A, B)
    interpret_kernel(module, "gemm", {"C": C, "A": A, "B": B},
                     {"alpha": alpha, "beta": beta})
    return C, expected


class TestPerfectization:
    def test_syrk_becomes_perfect(self, syrk_module):
        f = syrk_module.functions()[0]
        outer = outermost_loops(f)[0]
        assert len(perfect_loop_band(outer)) == 2
        assert perfectize_band(outer)
        assert len(perfect_loop_band(outer)) == 3
        ir.verify(syrk_module)

    def test_gemm_becomes_perfect(self, gemm_module):
        f = gemm_module.functions()[0]
        outer = outermost_loops(f)[0]
        perfectize_band(outer)
        assert len(perfect_loop_band(outer)) == 3

    def test_already_perfect_band_unchanged(self):
        module = compile_source("""
        void copy(float A[8][8], float B[8][8]) {
          for (int i = 0; i < 8; i++) {
            for (int j = 0; j < 8; j++) {
              B[i][j] = A[i][j];
            }
          }
        }""", "copy")
        outer = outermost_loops(module.functions()[0])[0]
        assert not perfectize_band(outer)

    def test_guard_uses_boundary_iteration(self, syrk_module):
        f = syrk_module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        guards = [op for op in f.walk() if op.name == "affine.if"]
        assert guards, "perfectization should introduce a first-iteration guard"

    def test_semantics_preserved(self, syrk_module):
        perfectize_band(outermost_loops(syrk_module.functions()[0])[0])
        ir.verify(syrk_module)
        C, expected = run_syrk(syrk_module, seed=20)
        np.testing.assert_allclose(C, expected, rtol=1e-5)


class TestRemoveVariableBound:
    def test_bounds_become_constant(self, syrk_module):
        f = syrk_module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        changed = remove_variable_bounds(f)
        assert changed == 1
        band = perfect_loop_band(outermost_loops(f)[0])
        assert all(loop.has_constant_bounds() for loop in band)
        assert band[1].constant_upper_bound == 16

    def test_band_stays_perfect(self, syrk_module):
        f = syrk_module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        remove_variable_bounds(f)
        assert len(perfect_loop_band(outermost_loops(f)[0])) == 3

    def test_trmm_lower_bound(self):
        from repro.kernels import kernel_source

        module = compile_source(kernel_source("trmm", 8), "trmm")
        f = module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        assert remove_variable_bounds(f) == 1
        for loop in f.walk():
            if isinstance(loop, AffineForOp):
                assert loop.has_constant_bounds()

    def test_constant_loops_untouched(self, gemm_module):
        assert remove_variable_bounds(gemm_module.functions()[0]) == 0

    def test_semantics_preserved(self, syrk_module):
        f = syrk_module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        remove_variable_bounds(f)
        ir.verify(syrk_module)
        C, expected = run_syrk(syrk_module, seed=30)
        np.testing.assert_allclose(C, expected, rtol=1e-5)


class TestLoopOrderOptimization:
    def prepared_band(self, module):
        f = module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        remove_variable_bounds(f)
        return perfect_loop_band(outermost_loops(f)[0])

    def test_syrk_permutation_matches_paper(self, syrk_module):
        """The paper's Table III reports perm map [1, 2, 0] for SYRK."""
        band = self.prepared_band(syrk_module)
        assert compute_permutation(band) == [1, 2, 0]

    def test_gemm_permutation_moves_reduction_out(self, gemm_module):
        band = self.prepared_band(gemm_module)
        assert compute_permutation(band) == [1, 2, 0]

    def test_explicit_permutation_applied(self, gemm_module):
        band = self.prepared_band(gemm_module)
        trips_before = [loop.trip_count() for loop in band]
        new_band = permute_loop_band(band, [2, 0, 1])
        assert [loop.trip_count() for loop in new_band] == [
            trips_before[1], trips_before[2], trips_before[0]]
        ir.verify(gemm_module)

    def test_identity_permutation_is_noop(self, gemm_module):
        band = self.prepared_band(gemm_module)
        assert permute_loop_band(band, [0, 1, 2]) == band

    def test_invalid_permutation_rejected(self, gemm_module):
        band = self.prepared_band(gemm_module)
        with pytest.raises(PassError):
            permute_loop_band(band, [0, 0, 1])

    def test_semantics_preserved(self, syrk_module):
        band = self.prepared_band(syrk_module)
        optimize_loop_order(band)
        ir.verify(syrk_module)
        C, expected = run_syrk(syrk_module, seed=40)
        np.testing.assert_allclose(C, expected, rtol=1e-5)

    def test_gemm_semantics_preserved_for_every_permutation(self, gemm_module):
        import itertools

        for permutation in itertools.permutations(range(3)):
            module = compile_source(GEMM_SOURCE, "gemm")
            f = module.functions()[0]
            perfectize_band(outermost_loops(f)[0])
            band = perfect_loop_band(outermost_loops(f)[0])
            permute_loop_band(band, list(permutation))
            C, expected = run_gemm(module, seed=sum(permutation))
            np.testing.assert_allclose(C, expected, rtol=1e-4)


class TestLoopTiling:
    def prepared_band(self, module):
        f = module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        remove_variable_bounds(f)
        return perfect_loop_band(outermost_loops(f)[0])

    def test_tile_structure(self, gemm_module):
        band = self.prepared_band(gemm_module)
        tile_loops, point_loops = tile_loop_band(band, [2, 4, 1])
        assert [loop.step for loop in tile_loops] == [2, 4, 1]
        assert [loop.trip_count() for loop in point_loops] == [2, 4]
        ir.verify(gemm_module)

    def test_tile_size_one_everywhere_keeps_band(self, gemm_module):
        band = self.prepared_band(gemm_module)
        tile_loops, point_loops = tile_loop_band(band, [1, 1, 1])
        assert point_loops == []
        assert len(tile_loops) == 3

    def test_tile_size_clamped_to_divisor(self, gemm_module):
        band = self.prepared_band(gemm_module)
        tile_loops, point_loops = tile_loop_band(band, [3, 1, 1])
        # 3 does not divide 8 -> reduced to 2.
        assert tile_loops[0].step == 2

    def test_requires_perfect_band(self, syrk_module):
        f = syrk_module.functions()[0]
        band = loop_band_from(outermost_loops(f)[0])
        with pytest.raises(PassError):
            tile_loop_band(band, [1] * len(band))

    def test_requires_constant_bounds(self, syrk_module):
        f = syrk_module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        band = perfect_loop_band(outermost_loops(f)[0])
        with pytest.raises(PassError):
            tile_loop_band(band, [1, 2, 1])

    def test_wrong_number_of_sizes(self, gemm_module):
        band = self.prepared_band(gemm_module)
        with pytest.raises(PassError):
            tile_loop_band(band, [2])

    def test_semantics_preserved(self, gemm_module):
        band = self.prepared_band(gemm_module)
        tile_loop_band(band, [2, 1, 4])
        ir.verify(gemm_module)
        C, expected = run_gemm(gemm_module, seed=50)
        np.testing.assert_allclose(C, expected, rtol=1e-4)

    @settings(max_examples=10, deadline=None)
    @given(st.tuples(st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 4, 8]),
                     st.sampled_from([1, 2, 4, 8])))
    def test_any_power_of_two_tiling_preserves_gemm(self, sizes):
        module = compile_source(GEMM_SOURCE, "gemm")
        f = module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        band = perfect_loop_band(outermost_loops(f)[0])
        tile_loop_band(band, list(sizes))
        C, expected = run_gemm(module, seed=60)
        np.testing.assert_allclose(C, expected, rtol=1e-4)


class TestLoopUnroll:
    def test_full_unroll_removes_loop(self):
        module = compile_source("""
        void scale(float A[4]) {
          for (int i = 0; i < 4; i++) { A[i] *= 2.0; }
        }""", "scale")
        f = module.functions()[0]
        loop = outermost_loops(f)[0]
        fully_unroll(loop)
        ir.verify(module)
        assert not any(op.name == "affine.for" for op in f.walk())
        assert len([op for op in f.walk() if op.name == "affine.store"]) == 4

    def test_full_unroll_semantics(self):
        module = compile_source("""
        void scale(float A[4]) {
          for (int i = 0; i < 4; i++) { A[i] *= 2.0; }
        }""", "scale")
        fully_unroll(outermost_loops(module.functions()[0])[0])
        A = random_array((4,), seed=7)
        expected = A * 2.0
        interpret_kernel(module, "scale", {"A": A})
        np.testing.assert_allclose(A, expected, rtol=1e-6)

    def test_partial_unroll_multiplies_step(self):
        module = compile_source("""
        void scale(float A[8]) {
          for (int i = 0; i < 8; i++) { A[i] *= 2.0; }
        }""", "scale")
        loop = outermost_loops(module.functions()[0])[0]
        assert unroll_loop(loop, 4) is None
        assert loop.step == 4
        assert len([op for op in loop.body.operations if op.name == "affine.store"]) == 4

    def test_partial_unroll_semantics(self):
        module = compile_source("""
        void scale(float A[8]) {
          for (int i = 0; i < 8; i++) { A[i] = A[i] + 1.0; }
        }""", "scale")
        unroll_loop(outermost_loops(module.functions()[0])[0], 2)
        ir.verify(module)
        A = random_array((8,), seed=8)
        expected = A + 1.0
        interpret_kernel(module, "scale", {"A": A})
        np.testing.assert_allclose(A, expected, rtol=1e-6)

    def test_factor_not_dividing_trip_reduced(self):
        module = compile_source("""
        void scale(float A[6]) {
          for (int i = 0; i < 6; i++) { A[i] *= 2.0; }
        }""", "scale")
        loop = outermost_loops(module.functions()[0])[0]
        unroll_loop(loop, 4)  # reduced to 3
        assert loop.step == 3

    def test_unroll_factor_one_is_noop(self, gemm_module):
        loop = outermost_loops(gemm_module.functions()[0])[0]
        assert unroll_loop(loop, 1) is None
        assert loop.step == 1

    def test_variable_bound_rejected(self, syrk_module):
        f = syrk_module.functions()[0]
        loops = [op for op in f.walk() if isinstance(op, AffineForOp)
                 and not op.has_constant_bounds()]
        with pytest.raises(PassError):
            unroll_loop(loops[0], 2)

    def test_fully_unroll_nested(self, gemm_module):
        f = gemm_module.functions()[0]
        outer = outermost_loops(f)[0]
        unrolled = fully_unroll_nested(outer)
        assert unrolled == 2
        assert not any(isinstance(op, AffineForOp) for op in outer.walk() if op is not outer)
        C, expected = run_gemm(gemm_module, seed=70)
        np.testing.assert_allclose(C, expected, rtol=1e-4)


# -- fully_unroll_nested against unrolling one loop at a time ---------------------------
#
# The one-level expansion of 89b6fc6, verbatim: it copied every ``affine.if``
# whole and left all of them to ``-simplify-affine-if``.  Innermost loop
# first, it was the oracle of the expansion that judges an ``affine.if``
# before copying it (2f7637c's, frozen below), and its records still are.


def _frozen_fully_unroll(loop):
    value_map, constants, single_ivs, new_ops = {}, {}, {}, []
    iv = loop.induction_variable
    body = [op for op in loop.body.operations if op.name != "affine.yield"]
    for iteration_value in range(loop.constant_lower_bound,
                                 loop.constant_upper_bound, loop.step):
        constant = arith.ConstantOp(iteration_value, index)
        new_ops.append(constant)
        value_map[iv] = constants[iv] = constant.result()
        for body_op in body:
            if body_op.name == "affine.apply":
                folded = _fold_cloned_apply(body_op, constants, single_ivs)
                if folded is not None:
                    value_map[body_op.result()] = folded.result()
                    new_ops.append(folded)
                    continue
            new_ops.append(body_op.clone(value_map))
    loop.parent.insert_all_after(loop, new_ops)
    loop.erase()


def _unroll_one_at_a_time(root, fully_unroll=_frozen_fully_unroll):
    """The oracle: every nested loop unrolled one level at a time, innermost
    first (what ``fully_unroll_nested`` did before it expanded a nest over
    its iteration product), by the expansion that judged no ``affine.if``."""
    count = 0
    for op in list(root.walk_post_order()):
        if op is not root and isinstance(op, AffineForOp):
            if op.trip_count() is None:
                raise PassError("cannot fully unroll a loop with variable bounds")
            fully_unroll(op)
            count += 1
    return count


def _unroll_one_at_a_time_judging(root):
    """The same order through the public one-level call, which judges."""
    return _unroll_one_at_a_time(root, fully_unroll)


def _ir_signature(func_op):
    """Printed IR plus, for every value, who uses it in which order."""
    position = {op: number for number, op in enumerate(func_op.walk())}
    values = [value for op in func_op.walk()
              for value in (*op.results,
                            *(argument for region in op.regions
                              for block in region.blocks
                              for argument in block.arguments))]
    return (print_op(func_op, stable_ids=True),
            [[(position[use.owner], use.index) for use in value.uses]
             for value in values])


# -- the expansion of 2f7637c, its code verbatim (docstrings left out) --------------------
#
# It judged every result-less ``affine.if`` before copying it and handed the
# cleanup every copy it made.  The expansion now leaves out what the first
# cleanup round deleted of that: raw, it is this one after
# ``_reference_prune``; after ``CLEANUP_PIPELINE``, this one as it is after
# ``PARENT_TAIL``, whose second round its copies need.


def _replace_by_expansion_at_2f7637c(loop, nested, prune=None):
    new_ops = []
    expansion = _ExpansionAt2f7637c(loop, nested)
    expansion.expand(loop, {}, new_ops)
    if prune is not None:
        new_ops = prune(new_ops, merge=nested)
    loop.parent.insert_all_after(loop, new_ops)
    loop.erase()
    expansion.report()
    return new_ops


class _ExpansionAt2f7637c:
    __slots__ = ("nested", "value_map", "single_ivs", "site",
                 "outside_ranges", "verdicts", "judged")

    def __init__(self, loop, nested):
        self.nested = nested
        self.value_map = {}
        self.single_ivs = {}
        self.site = constant_bound_domain(loop)
        self.outside_ranges = {}
        self.verdicts = {}
        self.judged = {True: 0, False: 0, None: 0}

    def report(self):
        if obs.active() is not None:
            obs.counter("unroll.if.taken", self.judged[True])
            obs.counter("unroll.if.dropped", self.judged[False])
            obs.counter("unroll.if.undecided", self.judged[None])

    def expand(self, loop, constants, new_ops):
        value_map, single_ivs = self.value_map, self.single_ivs
        iv = loop.induction_variable
        body = [op for op in loop.body.operations if op.name != "affine.yield"]
        for iteration_value in range(loop.constant_lower_bound,
                                     loop.constant_upper_bound, loop.step):
            constant = arith.ConstantOp(iteration_value, index)
            new_ops.append(constant)
            value_map[iv] = constants[iv] = constant.result()
            for body_op in body:
                if body_op.name == "affine.apply":
                    folded = _fold_cloned_apply(body_op, constants, single_ivs)
                    if folded is not None:
                        value_map[body_op.result()] = folded.result()
                        new_ops.append(folded)
                        continue
                if not body_op.regions:
                    new_ops.append(body_op.clone(value_map))
                elif not isinstance(body_op, AffineForOp):
                    self.copy_region_op(body_op, new_ops)
                elif self.nested:
                    self.expand(body_op, constants, new_ops)
                else:
                    new_ops.append(body_op.clone(value_map))

    def copy_region_op(self, op, new_ops):
        if op.name == "affine.if" and not op.results:
            verdict = self.verdict(op)
            self.judged[verdict] += 1
            if verdict is not None:
                branch = op.then_block if verdict else op.else_block
                if branch is not None:
                    self.copy_block(branch, new_ops, inlined=True)
                return
        value_map = self.value_map
        new_op = op.clone_without_regions(value_map)
        for region in op.regions:
            new_region = new_op.add_region()
            for block in region.blocks:
                new_block = Block()
                new_region.add_block(new_block)
                for argument in block.arguments:
                    value_map[argument] = new_block.add_argument(argument.type)
                copies = []
                self.copy_block(block, copies)
                for copy in copies:
                    new_block.append(copy)
        new_ops.append(new_op)

    def copy_block(self, block, new_ops, inlined=False):
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

    def verdict(self, if_op):
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


@contextlib.contextmanager
def _unrolling_as_at_2f7637c(prune=None):
    """Every full expansion through 2f7637c's, its copies handed to
    ``prune`` (when given) before they go into the block."""
    live = loop_unroll._replace_by_expansion
    loop_unroll._replace_by_expansion = functools.partial(
        _replace_by_expansion_at_2f7637c, prune=prune)
    try:
        yield
    finally:
        loop_unroll._replace_by_expansion = live


def _reference_prune(ops, merge=True, counts=None):
    """What the first cleanup round deletes of an expansion's copies, taken
    out plainly: dead copies (side-effect-free, region-free, results
    unused) until none is left, then, with ``merge`` (the nested form),
    each copy that computes what an earlier one does, its uses handed to
    the earlier one."""
    counts = {} if counts is None else counts
    ops = list(ops)
    while True:
        dead = [op for op in ops if not op.regions and op.results
                and not op.has_side_effects()
                and not any(result.uses for result in op.results)]
        if not dead:
            break
        for op in dead:
            op.drop_all_references()
            ops.remove(op)
        counts["dead"] = counts.get("dead", 0) + len(dead)
    if not merge:
        return ops
    survivors, first = [], {}
    for op in ops:
        if (op.name in arith.PURE_OPS or op.name == "affine.apply") \
                and not op.regions and len(op.results) == 1:
            key = (op.name, tuple(id(value) for value in op.operands),
                   tuple(sorted(op.attributes.items())), op.results[0].type)
            if key in first:
                for use in op.results[0].uses:
                    use.owner.set_operand(use.index, first[key].results[0])
                op.drop_all_references()
                counts["merged"] = counts.get("merged", 0) + 1
                continue
            first[key] = op
        survivors.append(op)
    return survivors


def _assert_matches_oracle(module, root_position):
    """Unroll below the op at ``root_position`` (walk order of the first
    function) on clones of ``module``, by ``fully_unroll_nested`` and one
    level at a time through ``fully_unroll``: live, by 2f7637c's expansion
    and by 2f7637c's expansion with its copies handed to the reference
    prune.

    Live, either form leaves 2f7637c's pruned IR, operation for operation
    and use for use; after ``CLEANUP_PIPELINE`` it leaves 2f7637c's unpruned
    IR after ``PARENT_TAIL``, and the two forms leave the same.
    ``fully_unroll_nested`` copied no ``affine.if`` that
    ``-simplify-affine-if`` decides on the spot.

    Returns ``(count, printed, uses, ifs decided)`` of the live
    ``fully_unroll_nested``, or None when a variable bound stopped it.
    """
    sides = {}
    for unroll in (fully_unroll_nested, _unroll_one_at_a_time_judging):
        for unrolling in ("live", "pruned", "2f7637c"):
            func_op = module.clone().functions()[0]
            root = list(func_op.walk())[root_position]
            before = print_op(func_op, stable_ids=True)
            with obs.session() as session, \
                    contextlib.nullcontext() if unrolling == "live" else \
                    _unrolling_as_at_2f7637c(
                        _reference_prune if unrolling == "pruned" else None):
                try:
                    count = unroll(root)
                except PassError:
                    sides[unroll, unrolling] = None
                    if unroll is fully_unroll_nested:
                        # All or nothing (one at a time may stop half way).
                        assert print_op(func_op, stable_ids=True) == before
                    continue
            counters = session.metrics.counters
            decided = int(counters.get("unroll.if.taken", 0)
                          + counters.get("unroll.if.dropped", 0))
            raw = (count, *_ir_signature(func_op), decided)
            if unroll is fully_unroll_nested and unrolling == "live":
                assert [if_op for if_op in func_op.walk()
                        if if_op.name == "affine.if" and not if_op.results
                        and _evaluate_condition(if_op) is not None] == []
            if unrolling != "pruned":
                build_pipeline_cached(CLEANUP_PIPELINE if unrolling == "live"
                                      else PARENT_TAIL).run(func_op)
            sides[unroll, unrolling] = (raw, _ir_signature(func_op))
    for unroll in (fully_unroll_nested, _unroll_one_at_a_time_judging):
        live, pruned, unpruned = (sides[unroll, unrolling] for unrolling
                                  in ("live", "pruned", "2f7637c"))
        if live is None:
            assert pruned is None and unpruned is None
            continue
        assert live[0] == pruned[0]
        assert live[1] == unpruned[1]
    nested, levels = (sides[unroll, "live"] for unroll
                      in (fully_unroll_nested, _unroll_one_at_a_time_judging))
    if nested is None:
        return None
    if levels is not None:
        assert nested[1] == levels[1]
    return nested[0]


def _function(arg_types):
    module = ir.ModuleOp("nests")
    func_op = func.build_function(module, "nest", arg_types)
    builder = Builder()
    builder.set_insertion_point_to_end(func_op.body)
    return module, func_op, builder


def _loop(builder, lower, upper):
    loop = builder.insert(AffineForOp.constant_bounds(lower, upper))
    builder.set_insertion_point_to_end(loop.body)
    return loop


def _touch(builder, memref, indices, access_map=None):
    """``memref[indices] = memref[indices] + memref[indices]``."""
    load = builder.insert(AffineLoadOp(memref, indices, access_map))
    doubled = builder.insert(arith.AddFOp(load.result(), load.result()))
    builder.insert(AffineStoreOp(doubled.result(), memref, indices, access_map))


def _nest_with_loop_inside_if():
    """for i { if (i >= 1) { for j { apply(i, j) } } else { for j {} }; B[i] }"""
    module, func_op, builder = _function([MemRefType((16,), f32)])
    (buffer,) = func_op.arguments
    outer = _loop(builder, 0, 3)
    i = outer.induction_variable
    branch = builder.insert(AffineIfOp(
        IntegerSet.non_negative(1, dim(0) - 1), [i], with_else=True))
    builder.set_insertion_point_to_end(branch.then_block)
    j = _loop(builder, 0, 2).induction_variable
    address = builder.insert(AffineApplyOp(
        AffineMap(2, 0, [dim(0) * 4 + dim(1)]), [i, j]))
    _touch(builder, buffer, [address.result()])
    builder.set_insertion_point_to_end(branch.else_block)
    _touch(builder, buffer, [_loop(builder, 4, 6).induction_variable])
    builder.set_insertion_point_to_end(outer.body)
    _touch(builder, buffer, [i])
    builder.insert(AffineYieldOp())
    builder.set_insertion_point_to_end(func_op.body)
    builder.insert(func.ReturnOp())
    return module


def _nest_under_single_iteration_loop():
    """for t in [2, 3) { for i { for j { apply(i, t); apply(j, t, n) } } }:
    the first apply folds with the trip-1 loop's only value even when that
    loop is the root and stays; the second never folds (``n`` is an
    argument)."""
    module, func_op, builder = _function([MemRefType((64,), f32), index])
    buffer, n = func_op.arguments
    t = _loop(builder, 2, 3).induction_variable
    i = _loop(builder, 0, 2).induction_variable
    j = _loop(builder, 0, 2).induction_variable
    folded = builder.insert(AffineApplyOp(
        AffineMap(2, 0, [dim(0) * 8 + dim(1)]), [i, t]))
    kept = builder.insert(AffineApplyOp(
        AffineMap(3, 0, [dim(0) + dim(1) + dim(2)]), [j, t, n]))
    _touch(builder, buffer, [folded.result()])
    _touch(builder, buffer, [kept.result()])
    builder.set_insertion_point_to_end(func_op.body)
    builder.insert(func.ReturnOp())
    return module


def _nest_with_apply_chain():
    """Applies feeding applies, across levels: a(i) in the outer body feeds
    b(a, j) and c(b) in the inner one and d(a) after it."""
    module, func_op, builder = _function([MemRefType((64,), f32)])
    (buffer,) = func_op.arguments
    outer = _loop(builder, 0, 2)
    a = builder.insert(AffineApplyOp(
        AffineMap(1, 0, [dim(0) * 8]), [outer.induction_variable]))
    j = _loop(builder, 0, 3).induction_variable
    b = builder.insert(AffineApplyOp(
        AffineMap(2, 0, [dim(0) + dim(1)]), [a.result(), j]))
    c = builder.insert(AffineApplyOp(AffineMap(1, 0, [dim(0) + 1]), [b.result()]))
    _touch(builder, buffer, [c.result()])
    builder.set_insertion_point_to_end(outer.body)
    d = builder.insert(AffineApplyOp(AffineMap(1, 0, [dim(0) + 7]), [a.result()]))
    _touch(builder, buffer, [d.result()])
    builder.set_insertion_point_to_end(func_op.body)
    builder.insert(func.ReturnOp())
    return module


def _imperfect_nests():
    """Two nests in a row; the first has operations before, between and
    after two inner loops, and a value of the outer body used inside one."""
    module, func_op, builder = _function(
        [MemRefType((4, 4), f32), MemRefType((4,), f32)])
    matrix, vector = func_op.arguments
    outer = _loop(builder, 0, 2)
    i = outer.induction_variable
    scale = builder.insert(AffineLoadOp(vector, [i]))
    j = _loop(builder, 0, 2).induction_variable
    element = builder.insert(AffineLoadOp(matrix, [i, j]))
    scaled = builder.insert(arith.MulFOp(element.result(), scale.result()))
    builder.insert(AffineStoreOp(scaled.result(), matrix, [i, j]))
    builder.set_insertion_point_to_end(outer.body)
    _touch(builder, vector, [i])
    _touch(builder, matrix, [_loop(builder, 1, 4).induction_variable, i])
    builder.set_insertion_point_to_end(outer.body)
    builder.insert(AffineStoreOp(scale.result(), vector, [i]))
    builder.set_insertion_point_to_end(func_op.body)
    _touch(builder, vector, [_loop(builder, 0, 4).induction_variable])
    builder.set_insertion_point_to_end(func_op.body)
    builder.insert(func.ReturnOp())
    return module


HAND_BUILT_NESTS = {
    "loop-inside-if": _nest_with_loop_inside_if,
    "single-iteration-loop": _nest_under_single_iteration_loop,
    "apply-chain": _nest_with_apply_chain,
    "imperfect": _imperfect_nests,
}


class TestNestedUnrollMatchesOneLoopAtATime:
    """``fully_unroll_nested`` copies every operation once, under all the
    enclosing iterations at a time; what it leaves must be, operation for
    operation and use for use, what 2f7637c's expansion left once the
    reference prune has taken out what the first cleanup round deleted, and
    once cleaned up what the one-level unrolling leaves."""

    @pytest.mark.exhaustive
    @pytest.mark.parametrize("kernel", ["bicg", "gemm", "gesummv", "syr2k",
                                        "syrk", "trmm"])
    def test_table3_kernels_under_every_prefix_and_tiling(self, kernel):
        base = compile_kernel(kernel, 4)
        unrolled = rejected = 0
        for perfectize, rvb in itertools.product((False, True), repeat=2):
            prefixed = base.clone()
            func_op = prefixed.functions()[0]
            canonicalize(func_op)
            run_design_point_prefix(func_op, perfectize, rvb)
            depth = len(loop_band_from(outermost_loops(func_op)[0]))
            for tiles in itertools.product((1, 2, 4), repeat=depth):
                staged = prefixed.clone()
                func_op = staged.functions()[0]
                target = stage_design_point(func_op, tuple(range(depth)), tiles)
                # What pipeline_loop and pipeline_function unroll below.
                for root in (target, func_op):
                    position = next(number for number, op
                                    in enumerate(func_op.walk()) if op is root)
                    if _assert_matches_oracle(staged, position) is None:
                        rejected += 1
                    else:
                        unrolled += 1
        assert unrolled
        if kernel in ("syr2k", "syrk", "trmm"):
            assert rejected  # triangular until the bounds are removed

    @pytest.mark.parametrize("name", sorted(HAND_BUILT_NESTS))
    def test_hand_built_nests(self, name):
        module = HAND_BUILT_NESTS[name]()
        ir.verify(module)
        func_op = module.functions()[0]
        roots = [0] + [number for number, op in enumerate(func_op.walk())
                       if isinstance(op, AffineForOp)]
        for position in roots:
            count, printed, _, _ = _assert_matches_oracle(module, position)
            if position == 0:
                assert "affine.for" not in printed
                assert count == len(roots) - 1  # distinct loops, not copies

    def test_applies_fold_where_unrolling_one_loop_at_a_time_folds_them(self):
        def applies_left(module, root_position=0):
            _, printed, _, _ = _assert_matches_oracle(module, root_position)
            return printed.count("affine.apply")

        # Direct children of an unrolled loop body fold, the trip-1
        # enclosing loop's value included; an argument operand never does.
        # The one that does not is copied per (i, j), four times, and the
        # copies for i = 1 compute what those for i = 0 do: merged, two.
        assert applies_left(_nest_under_single_iteration_loop()) == 2
        assert applies_left(_nest_under_single_iteration_loop(), 1) == 2
        assert applies_left(_nest_with_apply_chain()) == 0
        # Below an affine.if the fold scope restarts, taken or copied whole:
        # the copied apply keeps the outer constant as an operand, for
        # canonicalize to fold.  Two per taken branch (i = 1, 2); the branch
        # i = 0 drops is never built.
        assert applies_left(_nest_with_loop_inside_if()) == 4

    def test_every_operation_is_cloned_at_most_once(self, monkeypatch):
        module = compile_kernel("gemm", 4)
        func_op = module.functions()[0]
        canonicalize(func_op)
        target = stage_design_point(func_op, (0, 1, 2), (2, 2, 2))
        clones = []
        clone = Operation.clone
        monkeypatch.setattr(Operation, "clone", lambda op, value_map=None:
                            clones.append(op) or clone(op, value_map))
        before = {op for op in target.walk()}
        fully_unroll_nested(target)
        created = [op for op in target.walk() if op not in before]
        assert len(clones) <= len(created)
        assert all(op in before for op in clones)  # no copy is copied again

    def test_variable_bound_leaves_the_ir_untouched(self):
        # syr2k: a constant-bound k loop inside the triangular j loop, so
        # unrolling innermost-first mutates before it meets the j loop.
        module = compile_kernel("syr2k", 4)
        func_op = module.functions()[0]
        digest = ir_digest(func_op)
        with pytest.raises(PassError, match="variable bounds"):
            fully_unroll_nested(func_op)
        assert ir_digest(func_op) == digest
        ir.verify(module)


# -- what deciding an affine.if while copying it changes, and what it does not ------------

def _seeded_points(kernel, size, count, guarded=False):
    """``count`` distinct points of ``kernel``'s space, drawn with a fixed
    seed; ``guarded`` keeps those whose prefix leaves an ``affine.if``
    (where the space has any: bicg is perfect and rectangular)."""
    module = compile_kernel(kernel, size)
    space = KernelDesignSpace.from_function(module.functions()[0])
    guarded = guarded and len(space.lp_options) + len(space.rvb_options) > 2
    rng = random.Random(24)
    points: dict = {}
    while len(points) < count:
        point = space.decode(space.random_point(rng))
        if not guarded or point.loop_perfectization or point.remove_variable_bound:
            points.setdefault(point)
    return module, space, list(points)


@contextlib.contextmanager
def _unrolling_as_at_89b6fc6():
    """Pipelining legalizes through the oracle: no ``affine.if`` judged."""
    judging = pipelining.fully_unroll_nested
    pipelining.fully_unroll_nested = _unroll_one_at_a_time
    try:
        yield
    finally:
        pipelining.fully_unroll_nested = judging


def _staged_and_pipelined(module, point, unrolling=contextlib.nullcontext):
    """``point``'s prefix and suffix on a copy of ``module``, every full
    expansion made under ``unrolling()`` (live by default)."""
    func_op = module.clone().functions()[0]
    canonicalize(func_op)
    run_design_point_prefix(func_op, point.loop_perfectization,
                            point.remove_variable_bound)
    with unrolling():
        run_design_point_suffix(func_op, point.perm_map, point.tile_sizes,
                                point.target_ii)
    return func_op


class TestUnrollingDecidesAffineIfs:
    """An ``affine.if`` whose operands the copy makes constant is decided
    before it is copied, and what fed only the branch it drops is never
    copied.  Against the expansion of 2f7637c, which copied that and left
    the cleanup what it deletes first, nothing moves in the cleaned IR; and
    against the expansion of 89b6fc6, which judged no ``affine.if``, nothing
    in a record."""

    #: Points per kernel: in tier-1, and with ``-m exhaustive`` for the IR
    #: (240 over the six kernels) and for the records (342).
    SAMPLE, FULL_IR_SAMPLE, FULL_RECORD_SAMPLE = 12, 40, 57

    def _assert_ir_equals_the_oracles(self, kernel, count):
        # The tail runs no -simplify-affine-if: after its head, no
        # affine.if may be left that the pass decides.
        head, *rest = CLEANUP_PIPELINE.split(",")
        assert head == "canonicalize" and "simplify-affine-if" not in rest
        rest = build_pipeline_cached(",".join(rest))
        module, _, points = _seeded_points(kernel, 8, count)
        decided = moved = 0
        for point in points:
            with obs.session() as session:
                judged = _staged_and_pipelined(module, point)
            decided += session.metrics.counters.get("unroll.if.taken", 0) \
                + session.metrics.counters.get("unroll.if.dropped", 0)
            unpruned = _staged_and_pipelined(module, point, _unrolling_as_at_2f7637c)
            canonicalize(judged)
            assert not any(op.name == "affine.if" and not op.results
                           and _evaluate_condition(op) is not None
                           for op in judged.walk()), point.describe()
            rest.run(judged)
            build_pipeline_cached(PARENT_TAIL).run(unpruned)
            assert _ir_signature(judged) == _ir_signature(unpruned), point.describe()
            # 89b6fc6's pipeline ran no canonicalize between simplify-affine-if
            # and cse: where it differs it is by which of two equal loads cse
            # kept, on a perfectized kernel.
            parent = _staged_and_pipelined(module, point, _unrolling_as_at_89b6fc6)
            build_pipeline_cached(PARENT_TAIL).run(parent)
            if print_op(parent, stable_ids=True) != print_op(judged, stable_ids=True):
                moved += 1
                assert point.loop_perfectization, point.describe()
                assert collections.Counter(op.name for op in parent.walk()) \
                    == collections.Counter(op.name for op in judged.walk())
        assert decided or kernel == "bicg"  # perfect and rectangular: no guard
        if kernel in ("gemm", "syr2k", "syrk"):
            assert moved  # a load that fed only the guarded store

    @pytest.mark.parametrize("kernel", sorted(KERNEL_NAMES))
    def test_ir_equals_the_unpruned_expansions_after_cleanup(self, kernel):
        self._assert_ir_equals_the_oracles(kernel, self.SAMPLE)

    @pytest.mark.exhaustive
    @pytest.mark.parametrize("kernel", sorted(KERNEL_NAMES))
    def test_ir_equals_the_oracles_on_the_full_sample(self, kernel):
        self._assert_ir_equals_the_oracles(kernel, self.FULL_IR_SAMPLE)

    def _assert_records_equal_the_parents(self, kernel, count):
        # 89b6fc6's expansion leaves every guard it copied to the
        # -simplify-affine-if of the tail it ran, PARENT_TAIL.
        module, space, points = _seeded_points(kernel, 8, count)
        for point in points:
            siblings = [ii for ii in space.ii_options if ii != point.target_ii]
            judged = apply_design_point(module, point, sibling_iis=siblings)
            with _unrolling_as_at_89b6fc6(), \
                    registered({"parent-tail": PARENT_TAIL}):
                parent = apply_design_point(
                    module, dataclasses.replace(point, pipeline="parent-tail"),
                    sibling_iis=siblings)
            assert (judged.qor, judged.achieved_ii, judged.partition_factors,
                    judged.siblings) \
                == (parent.qor, parent.achieved_ii, parent.partition_factors,
                    parent.siblings), point.describe()

    @pytest.mark.parametrize("kernel", sorted(KERNEL_NAMES))
    def test_records_equal_the_parents(self, kernel):
        self._assert_records_equal_the_parents(kernel, self.SAMPLE)

    @pytest.mark.exhaustive
    @pytest.mark.parametrize("kernel", sorted(KERNEL_NAMES))
    def test_records_equal_the_parents_on_the_full_sample(self, kernel):
        self._assert_records_equal_the_parents(kernel, self.FULL_RECORD_SAMPLE)

    @pytest.mark.parametrize("size", [4, 8])
    @pytest.mark.parametrize("kernel", sorted(KERNEL_NAMES))
    def test_guarded_points_compute_the_reference(self, kernel, size):
        module, _, points = _seeded_points(kernel, size, 8, guarded=True)
        for point in points:
            assert_computes_the_reference(
                apply_design_point(module, point).module, kernel, size, seed=7,
                context=f"n={size}, {point.describe()}: ")

    def test_copies_left_out_are_counted_at_the_source(self):
        """``unroll.skipped.feeders`` + ``unroll.pruned.dead`` are the dead
        copies the reference prune drops from 2f7637c's expansion, and
        ``unroll.pruned.merged`` the copies it merges."""
        module = compile_kernel("gemm", 4)
        func_op = module.functions()[0]
        canonicalize(func_op)
        run_design_point_prefix(func_op, True, False)
        target = stage_design_point(func_op, (0, 1, 2), (4, 4, 4))
        gemm = (module, next(number for number, op in enumerate(func_op.walk())
                             if op is target))
        cases = [gemm] + [(build(), 0) for build in HAND_BUILT_NESTS.values()]
        for case, (nest, position) in enumerate(cases):
            with obs.session() as session:
                fully_unroll_nested(list(nest.clone().functions()[0].walk())[position])
            counters = session.metrics.counters
            reference: dict = {}
            with _unrolling_as_at_2f7637c(
                    functools.partial(_reference_prune, counts=reference)):
                fully_unroll_nested(list(nest.clone().functions()[0].walk())[position])
            assert (counters["unroll.skipped.feeders"]
                    + counters["unroll.pruned.dead"],
                    counters["unroll.pruned.merged"]) \
                == (reference.get("dead", 0), reference.get("merged", 0))
            if case == 0:
                # The loads of C and their products with beta, copied under
                # every k but used only by the store k == 0 keeps: 48 + 48.
                assert counters["unroll.skipped.feeders"] == 96

    def test_verdicts_are_counted_at_the_source(self):
        func_op = _nest_with_loop_inside_if().functions()[0]
        with obs.session() as session:
            fully_unroll_nested(func_op)
        counters = session.metrics.counters
        assert (counters["unroll.if.taken"], counters["unroll.if.dropped"],
                counters["unroll.if.undecided"]) == (2, 1, 0)
        # An operand that is an argument: copied whole, once per iteration.
        module, func_op, builder = _function([MemRefType((4,), f32), index])
        buffer, n = func_op.arguments
        i = _loop(builder, 0, 3).induction_variable
        guard = builder.insert(AffineIfOp(
            IntegerSet.non_negative(2, dim(1) - dim(0)), [i, n]))
        builder.set_insertion_point_to_end(guard.then_block)
        _touch(builder, buffer, [i])
        builder.set_insertion_point_to_end(func_op.body)
        builder.insert(func.ReturnOp())
        with obs.session() as session:
            fully_unroll_nested(func_op)
        assert session.metrics.counters["unroll.if.undecided"] == 3
        assert print_op(func_op).count("affine.if") == 3


class TestCombinedKernelFlow:
    def test_full_syrk_flow_matches_reference(self, syrk_module):
        """Perfectize + RVB + permute + tile + cleanup keeps SYRK's semantics."""
        from repro.transforms import (
            eliminate_common_subexpressions,
            forward_stores,
            simplify_affine_ifs,
            simplify_memref_accesses,
        )

        f = syrk_module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        remove_variable_bounds(f)
        band = perfect_loop_band(outermost_loops(f)[0])
        band = optimize_loop_order(band)
        tile_loop_band(band, [1, 2, 2])
        canonicalize(f)
        simplify_affine_ifs(f)
        forward_stores(f)
        simplify_memref_accesses(f)
        eliminate_common_subexpressions(f)
        canonicalize(f)
        ir.verify(syrk_module)
        C, expected = run_syrk(syrk_module, seed=80)
        np.testing.assert_allclose(C, expected, rtol=1e-5)

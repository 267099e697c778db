"""Tests for the redundancy-elimination passes."""

import random

import numpy as np
import pytest

from repro import ir
from repro.affine import AffineMap, dim
from repro.affine.set import Constraint, IntegerSet
from repro.dialects import arith, func, memref
from repro.dialects.affine_ops import AffineForOp, AffineIfOp, AffineLoadOp, AffineStoreOp
from repro.ir import Builder, InsertionPoint, MemRefType, ModuleOp, f32, index
from repro.ir.interpreter import Interpreter, interpret_kernel
from repro.ir.printer import print_op
from repro.kernels import KERNEL_NAMES, kernel_source
from repro.pipeline import compile_c
from repro.transforms import (
    canonicalize,
    eliminate_common_subexpressions,
    forward_stores,
    simplify_affine_ifs,
    simplify_memref_accesses,
)

from conftest import SYRK_SOURCE, compile_source, random_array, reference_syrk


def make_function(arg_types):
    module = ModuleOp("m")
    f = func.build_function(module, "f", arg_types)
    return module, f, Builder(InsertionPoint.at_end(f.body))


class TestCanonicalize:
    def test_integer_constant_folding(self):
        module, f, builder = make_function([])
        a = builder.insert(arith.ConstantOp(3, index))
        b = builder.insert(arith.ConstantOp(4, index))
        add = builder.insert(arith.AddIOp(a.result(), b.result()))
        buffer = builder.insert(memref.AllocOp(MemRefType((16,), f32)))
        value = builder.insert(arith.ConstantOp(1.0, f32))
        builder.insert(memref.StoreOp(value.result(), buffer.result(), [add.result()]))
        canonicalize(f)
        stores = [op for op in f.walk() if op.name == "memref.store"]
        folded = arith.constant_value(stores[0].indices[0])
        assert folded == 7

    def test_float_folding(self):
        module, f, builder = make_function([MemRefType((4,), f32)])
        a = builder.insert(arith.ConstantOp(2.0, f32))
        b = builder.insert(arith.ConstantOp(3.0, f32))
        mul = builder.insert(arith.MulFOp(a.result(), b.result()))
        zero = builder.insert(arith.ConstantOp(0, index))
        builder.insert(memref.StoreOp(mul.result(), f.arguments[0], [zero.result()]))
        canonicalize(f)
        stores = [op for op in f.walk() if op.name == "memref.store"]
        assert arith.constant_value(stores[0].value) == 6.0

    def test_dead_code_elimination(self):
        module, f, builder = make_function([])
        a = builder.insert(arith.ConstantOp(1.0, f32))
        builder.insert(arith.AddFOp(a.result(), a.result()))  # unused
        canonicalize(f)
        assert [op.name for op in f.body.operations] == []

    def test_stores_never_eliminated(self):
        module, f, builder = make_function([MemRefType((4,), f32)])
        zero = builder.insert(arith.ConstantOp(0, index))
        value = builder.insert(arith.ConstantOp(1.0, f32))
        builder.insert(memref.StoreOp(value.result(), f.arguments[0], [zero.result()]))
        canonicalize(f)
        assert any(op.name == "memref.store" for op in f.walk())

    def test_zero_trip_loop_removed(self):
        module, f, builder = make_function([])
        builder.insert(AffineForOp.constant_bounds(4, 4))
        canonicalize(f)
        assert not any(op.name == "affine.for" for op in f.walk())

    def test_single_iteration_loop_promoted(self):
        module, f, builder = make_function([MemRefType((4,), f32)])
        loop = builder.insert(AffineForOp.constant_bounds(2, 3))
        body = Builder(InsertionPoint.at_end(loop.body))
        value = body.insert(arith.ConstantOp(1.0, f32))
        body.insert(AffineStoreOp(value.result(), f.arguments[0], [loop.induction_variable]))
        canonicalize(f)
        assert not any(op.name == "affine.for" for op in f.walk())
        stores = [op for op in f.walk() if op.name == "affine.store"]
        assert len(stores) == 1

    def test_affine_apply_folding(self):
        module, f, builder = make_function([MemRefType((8,), f32)])
        from repro.dialects.affine_ops import AffineApplyOp

        c = builder.insert(arith.ConstantOp(3, index))
        apply_op = builder.insert(AffineApplyOp(AffineMap(1, 0, [dim(0) * 2 + 1]), [c.result()]))
        v = builder.insert(arith.ConstantOp(1.0, f32))
        builder.insert(AffineStoreOp(v.result(), f.arguments[0], [apply_op.result()]))
        canonicalize(f)
        stores = [op for op in f.walk() if op.name == "affine.store"]
        assert arith.constant_value(stores[0].indices[0]) == 7

    @pytest.mark.parametrize("lhs, rhs, quotient, remainder", [
        (7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1),
        (6, 3, 2, 0), (-6, 3, -2, 0), (0, -5, 0, 0), (2, 7, 0, 2), (-2, 7, 0, -2),
        # Beyond 2**53 a quotient taken through floats is wrong.
        (2**62 + 1, 3, 1537228672809129301, 2),
        (-(2**62 + 1), 3, -1537228672809129301, -2),
        (2**62 + 1, -3, -1537228672809129301, 2),
        (2**63 - 1, 2**31 + 1, 4294967294, 1),
    ])
    def test_signed_division_truncates_toward_zero_exactly(
            self, lhs, rhs, quotient, remainder):
        """What C's ``/`` and ``%`` (the emitted form) compute, from the
        fold and from the interpreter alike."""
        assert arith.trunc_div(lhs, rhs) == quotient
        module = ModuleOp("m")
        f = func.build_function(module, "f", [], [index, index])
        builder = Builder(InsertionPoint.at_end(f.body))
        a = builder.insert(arith.ConstantOp(lhs, index))
        b = builder.insert(arith.ConstantOp(rhs, index))
        div = builder.insert(arith.DivSIOp(a.result(), b.result()))
        rem = builder.insert(arith.RemSIOp(a.result(), b.result()))
        builder.insert(func.ReturnOp([div.result(), rem.result()]))
        assert Interpreter(module).run_function(f, []) == [quotient, remainder]
        canonicalize(f)
        assert [op.name for op in f.body.operations] \
            == ["arith.constant", "arith.constant", "func.return"]
        assert [arith.constant_value(value) for value in f.return_op().operands] \
            == [quotient, remainder]
        assert Interpreter(module).run_function(f, []) == [quotient, remainder]

    def test_division_by_zero_does_not_fold(self):
        module = ModuleOp("m")
        f = func.build_function(module, "f", [], [index, index])
        builder = Builder(InsertionPoint.at_end(f.body))
        a = builder.insert(arith.ConstantOp(2**62 + 1, index))
        zero = builder.insert(arith.ConstantOp(0, index))
        div = builder.insert(arith.DivSIOp(a.result(), zero.result()))
        rem = builder.insert(arith.RemSIOp(a.result(), zero.result()))
        builder.insert(func.ReturnOp([div.result(), rem.result()]))
        assert not canonicalize(f)
        assert [op.name for op in f.return_op().operands[0].owner.parent.operations] \
            == ["arith.constant", "arith.constant", "arith.divsi",
                "arith.remsi", "func.return"]

    def test_canonicalize_is_idempotent(self, gemm_module):
        f = gemm_module.functions()[0]
        canonicalize(f)
        assert not canonicalize(f)

    def test_a_region_op_its_erasures_empty_goes_in_the_same_run(self):
        # for i in [0, 8) { if (i - 4 >= 0) { %c = 1.0; %d = %c + %c } }:
        # erasing the dead add and constant empties the guard, erasing the
        # guard empties the loop.
        module, f, builder = make_function([MemRefType((16,), f32)])
        loop = builder.insert(AffineForOp.constant_bounds(0, 8))
        guard = Builder(InsertionPoint.at_end(loop.body)).insert(AffineIfOp(
            IntegerSet(1, 0, [Constraint(dim(0) - 4, False)]),
            [loop.induction_variable]))
        inner = Builder(InsertionPoint.at_end(guard.then_block))
        one = inner.insert(arith.ConstantOp(1.0, f32))
        inner.insert(arith.AddFOp(one.result(), one.result()))
        assert canonicalize(f)
        assert list(f.walk()) == [f]
        assert not canonicalize(f)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_a_second_run_after_the_cleanup_pipeline_changes_nothing(
            self, kernel):
        from repro.dse.apply import optimize_kernel_module
        from repro.dse.space import KernelDesignSpace

        module = compile_c(kernel_source(kernel, 8), kernel)
        space = KernelDesignSpace.from_function(module.functions()[0])
        point = space.decode(space.random_point(random.Random(kernel)))
        _, func_op = optimize_kernel_module(module, point)
        canonicalize(func_op)
        once = print_op(func_op)
        assert not canonicalize(func_op)
        assert print_op(func_op) == once


class TestCSE:
    def test_duplicate_constants_merged(self):
        module, f, builder = make_function([MemRefType((4,), f32)])
        a = builder.insert(arith.ConstantOp(1.0, f32))
        b = builder.insert(arith.ConstantOp(1.0, f32))
        add = builder.insert(arith.AddFOp(a.result(), b.result()))
        zero = builder.insert(arith.ConstantOp(0, index))
        builder.insert(memref.StoreOp(add.result(), f.arguments[0], [zero.result()]))
        removed = eliminate_common_subexpressions(f)
        assert removed >= 1
        assert add.operand(0) is add.operand(1)

    def test_identical_adds_merged(self):
        module, f, builder = make_function([MemRefType((4,), f32)])
        a = builder.insert(arith.ConstantOp(1.0, f32))
        add1 = builder.insert(arith.AddFOp(a.result(), a.result()))
        add2 = builder.insert(arith.AddFOp(a.result(), a.result()))
        mul = builder.insert(arith.MulFOp(add1.result(), add2.result()))
        zero = builder.insert(arith.ConstantOp(0, index))
        builder.insert(memref.StoreOp(mul.result(), f.arguments[0], [zero.result()]))
        eliminate_common_subexpressions(f)
        assert mul.operand(0) is mul.operand(1)

    def test_different_attributes_not_merged(self):
        module, f, builder = make_function([MemRefType((4,), f32)])
        a = builder.insert(arith.ConstantOp(1.0, f32))
        b = builder.insert(arith.ConstantOp(2.0, f32))
        zero = builder.insert(arith.ConstantOp(0, index))
        add = builder.insert(arith.AddFOp(a.result(), b.result()))
        builder.insert(memref.StoreOp(add.result(), f.arguments[0], [zero.result()]))
        removed = eliminate_common_subexpressions(f)
        assert a.parent is not None and b.parent is not None

    def test_equal_attributes_of_different_types_not_merged(self):
        # ``0 == 0.0``: with (name, operands, attributes) as the whole key
        # the float's users would read the ``index`` constant.
        module, f, builder = make_function([MemRefType((4,), f32)])
        zero = builder.insert(arith.ConstantOp(0, index))
        zero_f = builder.insert(arith.ConstantOp(0.0, f32))
        again = builder.insert(arith.ConstantOp(0.0, f32))
        add = builder.insert(arith.AddFOp(zero_f.result(), again.result()))
        store = builder.insert(memref.StoreOp(add.result(), f.arguments[0],
                                              [zero.result()]))
        builder.insert(func.ReturnOp())
        ir.verify(module)
        (before,) = _interpreted(module, [(4,)])
        assert eliminate_common_subexpressions(f) == 1  # the second float
        assert zero.parent is not None and zero_f.parent is not None
        assert (zero.result().type, zero_f.result().type) == (index, f32)
        assert add.operand(0) is add.operand(1) is zero_f.result()
        assert store.operands[-1] is zero.result()
        ir.verify(module)
        (after,) = _interpreted(module, [(4,)])
        np.testing.assert_array_equal(after, before)
        assert after[0] == 0.0

    def test_loads_not_cse_by_this_pass(self):
        module, f, builder = make_function([MemRefType((4,), f32)])
        zero = builder.insert(arith.ConstantOp(0, index))
        load1 = builder.insert(memref.LoadOp(f.arguments[0], [zero.result()]))
        load2 = builder.insert(memref.LoadOp(f.arguments[0], [zero.result()]))
        add = builder.insert(arith.AddFOp(load1.result(), load2.result()))
        builder.insert(memref.StoreOp(add.result(), f.arguments[0], [zero.result()]))
        eliminate_common_subexpressions(f)
        assert load1.parent is not None and load2.parent is not None


class TestSimplifyAffineIf:
    def build_loop_with_guard(self, constraint_expr, is_equality=False):
        module, f, builder = make_function([MemRefType((16,), f32)])
        loop = builder.insert(AffineForOp.constant_bounds(0, 8))
        body = Builder(InsertionPoint.at_end(loop.body))
        guard = body.insert(AffineIfOp(
            IntegerSet(1, 0, [Constraint(constraint_expr, is_equality)]),
            [loop.induction_variable]))
        inner = Builder(InsertionPoint.at_end(guard.then_block))
        value = inner.insert(arith.ConstantOp(1.0, f32))
        inner.insert(AffineStoreOp(value.result(), f.arguments[0], [loop.induction_variable]))
        return module, f, loop

    def test_always_true_guard_inlined(self):
        module, f, loop = self.build_loop_with_guard(dim(0))  # iv >= 0 always holds
        assert simplify_affine_ifs(f) == 1
        assert not any(op.name == "affine.if" for op in f.walk())
        assert any(op.name == "affine.store" for op in f.walk())

    def test_never_true_guard_removed(self):
        module, f, loop = self.build_loop_with_guard(dim(0) - 100)
        assert simplify_affine_ifs(f) == 1
        assert not any(op.name == "affine.store" for op in f.walk())

    def test_data_dependent_guard_kept(self):
        module, f, loop = self.build_loop_with_guard(dim(0) - 4)
        assert simplify_affine_ifs(f) == 0
        assert any(op.name == "affine.if" for op in f.walk())

    def test_equality_guard_on_constant_range(self):
        module, f, loop = self.build_loop_with_guard(dim(0) + 5, is_equality=True)
        # iv + 5 == 0 can never hold for iv in [0, 8).
        assert simplify_affine_ifs(f) == 1
        assert not any(op.name == "affine.store" for op in f.walk())


class TestStoreForwardAndAccessSimplification:
    def build_straightline(self):
        module, f, builder = make_function([MemRefType((8,), f32)])
        zero = builder.insert(arith.ConstantOp(0, index))
        value = builder.insert(arith.ConstantOp(2.0, f32))
        builder.insert(AffineStoreOp(value.result(), f.arguments[0], [zero.result()]))
        load = builder.insert(AffineLoadOp(f.arguments[0], [zero.result()]))
        double = builder.insert(arith.AddFOp(load.result(), load.result()))
        builder.insert(AffineStoreOp(double.result(), f.arguments[0], [zero.result()]))
        return module, f

    def test_store_to_load_forwarding(self):
        module, f = self.build_straightline()
        forwarded = forward_stores(f)
        assert forwarded >= 1
        assert not any(op.name == "affine.load" for op in f.walk())

    def test_forwarding_blocked_by_intervening_store(self):
        module, f, builder = make_function([MemRefType((8,), f32)])
        zero = builder.insert(arith.ConstantOp(0, index))
        one = builder.insert(arith.ConstantOp(1, index))
        value = builder.insert(arith.ConstantOp(2.0, f32))
        builder.insert(AffineStoreOp(value.result(), f.arguments[0], [zero.result()]))
        other = builder.insert(arith.ConstantOp(3.0, f32))
        builder.insert(AffineStoreOp(other.result(), f.arguments[0], [one.result()]))
        load = builder.insert(AffineLoadOp(f.arguments[0], [zero.result()]))
        builder.insert(AffineStoreOp(load.result(), f.arguments[0], [one.result()]))
        # The store to index 1 might alias (conservatively) -> no forwarding.
        assert forward_stores(f) == 0

    def test_write_only_local_buffer_removed(self):
        module, f, builder = make_function([])
        buffer = builder.insert(memref.AllocOp(MemRefType((8,), f32)))
        zero = builder.insert(arith.ConstantOp(0, index))
        value = builder.insert(arith.ConstantOp(1.0, f32))
        builder.insert(AffineStoreOp(value.result(), buffer.result(), [zero.result()]))
        forward_stores(f)
        assert not any(op.name == "memref.alloc" for op in f.walk())

    def test_identical_loads_folded(self):
        module, f, builder = make_function([MemRefType((8,), f32)])
        zero = builder.insert(arith.ConstantOp(0, index))
        load1 = builder.insert(AffineLoadOp(f.arguments[0], [zero.result()]))
        load2 = builder.insert(AffineLoadOp(f.arguments[0], [zero.result()]))
        add = builder.insert(arith.AddFOp(load1.result(), load2.result()))
        builder.insert(AffineStoreOp(add.result(), f.arguments[0], [zero.result()]))
        removed = simplify_memref_accesses(f)
        assert removed == 1
        assert add.operand(0) is add.operand(1)

    def test_dead_store_removed(self):
        module, f, builder = make_function([MemRefType((8,), f32)])
        zero = builder.insert(arith.ConstantOp(0, index))
        first = builder.insert(arith.ConstantOp(1.0, f32))
        builder.insert(AffineStoreOp(first.result(), f.arguments[0], [zero.result()]))
        second = builder.insert(arith.ConstantOp(2.0, f32))
        builder.insert(AffineStoreOp(second.result(), f.arguments[0], [zero.result()]))
        removed = simplify_memref_accesses(f)
        assert removed == 1
        stores = [op for op in f.walk() if op.name == "affine.store"]
        assert len(stores) == 1
        assert stores[0].value is second.result()

    def test_store_not_dead_when_load_intervenes(self):
        module, f, builder = make_function([MemRefType((8,), f32)])
        zero = builder.insert(arith.ConstantOp(0, index))
        first = builder.insert(arith.ConstantOp(1.0, f32))
        builder.insert(AffineStoreOp(first.result(), f.arguments[0], [zero.result()]))
        load = builder.insert(AffineLoadOp(f.arguments[0], [zero.result()]))
        builder.insert(AffineStoreOp(load.result(), f.arguments[0], [zero.result()]))
        assert simplify_memref_accesses(f) == 0


def _interpreted(module, shapes):
    """The arrays ``f`` of ``module`` leaves, run on fixed inputs."""
    arrays = [random_array(shape, seed=31 + position)
              for position, shape in enumerate(shapes)]
    Interpreter(module).run("f", arrays)
    return arrays


class TestScansStopAtOpsThatTouchWholeBuffers:
    """``memref.copy`` and ``func.call`` are neither loads nor stores, yet
    read and write the buffers they are handed: what a scan knew about
    those buffers ends there, at block level and inside a region."""

    SHAPES = [(4,), (4,), (4,)]

    def build(self, body, nested):
        """``f(A, B, OUT)`` with ``body`` filled in; ``clobber(builder)`` runs
        at block level, or inside an always-taken ``affine.if``."""
        module, f, builder = make_function([MemRefType(shape, f32)
                                            for shape in self.SHAPES])
        g = func.build_function(module, "g", [MemRefType((4,), f32)])
        inner = Builder(InsertionPoint.at_end(g.body))
        zero = inner.insert(arith.ConstantOp(0, index))
        five = inner.insert(arith.ConstantOp(5.0, f32))
        inner.insert(AffineStoreOp(five.result(), g.arguments[0], [zero.result()]))
        inner.insert(func.ReturnOp())
        zero = builder.insert(arith.ConstantOp(0, index))

        def clobber(op):
            if not nested:
                return builder.insert(op)
            guard = builder.insert(AffineIfOp(
                IntegerSet(1, 0, [Constraint(dim(0), False)]), [zero.result()]))
            return Builder(InsertionPoint.at_end(guard.then_block)).insert(op)

        body(builder, zero.result(), clobber, *f.arguments)
        builder.insert(func.ReturnOp())
        ir.verify(module)
        return module, f

    @staticmethod
    def stale_forward(builder, zero, clobber, A, B, OUT, over_call=False):
        two = builder.insert(arith.ConstantOp(2.0, f32))
        builder.insert(AffineStoreOp(two.result(), A, [zero]))
        clobber(func.CallOp("g", [A]) if over_call else memref.CopyOp(B, A))
        load = builder.insert(AffineLoadOp(A, [zero]))
        builder.insert(AffineStoreOp(load.result(), OUT, [zero]))

    @classmethod
    def stale_forward_over_call(cls, *args):
        cls.stale_forward(*args, over_call=True)

    @staticmethod
    def stale_load(builder, zero, clobber, A, B, OUT):
        first = builder.insert(AffineLoadOp(A, [zero]))
        clobber(memref.CopyOp(B, A))
        second = builder.insert(AffineLoadOp(A, [zero]))
        total = builder.insert(arith.AddFOp(first.result(), second.result()))
        builder.insert(AffineStoreOp(total.result(), OUT, [zero]))

    @staticmethod
    def observed_store(builder, zero, clobber, A, B, OUT):
        two = builder.insert(arith.ConstantOp(2.0, f32))
        three = builder.insert(arith.ConstantOp(3.0, f32))
        builder.insert(AffineStoreOp(two.result(), A, [zero]))
        clobber(memref.CopyOp(A, B))
        builder.insert(AffineStoreOp(three.result(), A, [zero]))

    @pytest.mark.parametrize("nested", [False, True], ids=["block", "region"])
    @pytest.mark.parametrize("shape", ["stale_forward", "stale_forward_over_call",
                                       "stale_load", "observed_store"])
    def test_nothing_crosses_a_copy_or_a_call(self, shape, nested):
        module, f = self.build(getattr(self, shape), nested)
        expected = _interpreted(module, self.SHAPES)
        assert forward_stores(f) == 0
        assert simplify_memref_accesses(f) == 0
        ir.verify(module)
        for after, before in zip(_interpreted(module, self.SHAPES), expected):
            np.testing.assert_array_equal(after, before)

    def test_other_buffers_are_still_known(self):
        """A copy into B leaves what the scan knows about A alone."""
        def body(builder, zero, clobber, A, B, OUT):
            two = builder.insert(arith.ConstantOp(2.0, f32))
            builder.insert(AffineStoreOp(two.result(), A, [zero]))
            clobber(memref.CopyOp(OUT, B))
            load = builder.insert(AffineLoadOp(A, [zero]))
            builder.insert(AffineStoreOp(load.result(), OUT, [zero]))

        module, f = self.build(body, nested=False)
        expected = _interpreted(module, self.SHAPES)
        assert forward_stores(f) == 1
        for after, before in zip(_interpreted(module, self.SHAPES), expected):
            np.testing.assert_array_equal(after, before)


class TestSemanticsPreservation:
    def test_cleanup_pipeline_preserves_syrk_results(self):
        module = compile_source(SYRK_SOURCE, "syrk")
        f = module.functions()[0]
        canonicalize(f)
        simplify_affine_ifs(f)
        forward_stores(f)
        simplify_memref_accesses(f)
        eliminate_common_subexpressions(f)
        canonicalize(f)
        ir.verify(module)

        C = random_array((16, 16), seed=11)
        A = random_array((16, 8), seed=12)
        expected = reference_syrk(1.25, 0.75, C, A)
        interpret_kernel(module, "syrk", {"C": C, "A": A},
                         {"alpha": 1.25, "beta": 0.75})
        np.testing.assert_allclose(C, expected, rtol=1e-5)

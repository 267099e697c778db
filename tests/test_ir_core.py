"""Tests for the IR core: types, values, operations, blocks, regions, cloning."""

import gc

import pytest

from repro import ir
from repro.dialects import arith, func, memref
from repro.dialects.affine_ops import AffineForOp, AffineStoreOp
from repro.ir import (
    Block,
    Builder,
    FunctionType,
    InsertionPoint,
    IntegerType,
    MemRefType,
    ModuleOp,
    Operation,
    TensorType,
    VerificationError,
    f32,
    i32,
    index,
    verify,
)


class TestTypes:
    def test_float_equality(self):
        assert ir.FloatType(32) == f32
        assert ir.FloatType(64) != f32

    def test_integer_width_validation(self):
        with pytest.raises(ValueError):
            IntegerType(0)

    def test_float_width_validation(self):
        with pytest.raises(ValueError):
            ir.FloatType(12)

    def test_index_singleton_equality(self):
        assert ir.IndexType() == index

    def test_function_type(self):
        ft = FunctionType([f32, i32], [f32])
        assert ft.inputs == (f32, i32)
        assert ft.results == (f32,)

    def test_tensor_type(self):
        tensor = TensorType((1, 3, 32, 32), f32)
        assert tensor.rank == 4
        assert tensor.num_elements == 3 * 32 * 32

    def test_shaped_type_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            TensorType((0, 3), f32)

    def test_memref_ports(self):
        memref_type = MemRefType((4, 4), f32)
        assert memref_type.ports_per_bank == 2

    def test_memref_hashable(self):
        assert hash(MemRefType((4,), f32)) == hash(MemRefType((4,), f32))

    def test_types_usable_as_dict_keys(self):
        mapping = {f32: "float", i32: "int"}
        assert mapping[ir.FloatType(32)] == "float"


class TestValuesAndUses:
    def test_op_result_use_list(self):
        constant = arith.ConstantOp(1.0, f32)
        add = arith.AddFOp(constant.result(), constant.result())
        assert constant.result().num_uses() == 2
        assert add in constant.result().users

    def test_replace_all_uses_with(self):
        a = arith.ConstantOp(1.0, f32)
        b = arith.ConstantOp(2.0, f32)
        add = arith.AddFOp(a.result(), a.result())
        a.result().replace_all_uses_with(b.result())
        assert a.result().num_uses() == 0
        assert add.operand(0) is b.result()
        assert add.operand(1) is b.result()

    def test_set_operand_updates_uses(self):
        a = arith.ConstantOp(1.0, f32)
        b = arith.ConstantOp(2.0, f32)
        add = arith.AddFOp(a.result(), a.result())
        add.set_operand(1, b.result())
        assert a.result().num_uses() == 1
        assert b.result().num_uses() == 1

    def test_erase_refuses_used_op(self):
        a = arith.ConstantOp(1.0, f32)
        arith.AddFOp(a.result(), a.result())
        with pytest.raises(ValueError):
            a.erase()

    def test_block_argument_owner(self):
        block = Block([index])
        assert block.arguments[0].owner is block

    def test_erase_block_argument_with_uses_rejected(self):
        block = Block([index])
        block.append(arith.AddIOp(block.arguments[0], block.arguments[0]))
        with pytest.raises(ValueError):
            block.erase_argument(0)


class TestOperations:
    def test_generic_operation(self):
        op = Operation("test.op", result_types=[f32], attributes={"key": 1})
        assert op.dialect == "test"
        assert op.get_attr("key") == 1
        assert op.num_results == 1

    def test_operand_type_check(self):
        with pytest.raises(TypeError):
            Operation("test.op", operands=[42])

    def test_attribute_helpers(self):
        op = Operation("test.op")
        op.set_attr("a", 1)
        assert op.has_attr("a")
        op.remove_attr("a")
        assert not op.has_attr("a")

    def test_parent_links(self):
        module = ModuleOp("m")
        f = func.build_function(module, "f", [f32])
        constant = arith.ConstantOp(0.0, f32)
        f.body.append(constant)
        assert constant.parent_op is f
        assert constant.parent_of_type("builtin.module") is module
        assert module.is_ancestor_of(constant)

    def test_is_before_in_block(self):
        block = Block()
        first = block.append(arith.ConstantOp(1.0, f32))
        second = block.append(arith.ConstantOp(2.0, f32))
        assert first.is_before_in_block(second)
        assert not second.is_before_in_block(first)

    def test_move_before_and_after(self):
        block = Block()
        first = block.append(arith.ConstantOp(1.0, f32))
        second = block.append(arith.ConstantOp(2.0, f32))
        second.move_before(first)
        assert block.operations[0] is second
        second.move_after(first)
        assert block.operations[1] is second

    def test_walk_traverses_nested_regions(self):
        loop = AffineForOp.constant_bounds(0, 4)
        inner = AffineForOp.constant_bounds(0, 2)
        loop.body.append(inner)
        names = [op.name for op in loop.walk()]
        assert names.count("affine.for") == 2

    def test_walk_post_order_children_first(self):
        loop = AffineForOp.constant_bounds(0, 4)
        constant = arith.ConstantOp(1.0, f32)
        loop.body.append(constant)
        ordered = list(loop.walk_post_order())
        assert ordered.index(constant) < ordered.index(loop)

    def test_detach_keeps_op_alive(self):
        block = Block()
        op = block.append(arith.ConstantOp(1.0, f32))
        op.detach()
        assert op.parent is None
        assert len(block) == 0


class TestCloning:
    def test_clone_is_deep(self):
        loop = AffineForOp.constant_bounds(0, 8)
        builder = Builder()
        builder.set_insertion_point_to_end(loop.body)
        constant = builder.insert(arith.ConstantOp(1.0, f32))
        clone = loop.clone()
        assert clone is not loop
        assert len(clone.body.operations) == 1
        assert clone.body.operations[0] is not constant

    def test_clone_remaps_internal_values(self):
        loop = AffineForOp.constant_bounds(0, 8)
        builder = Builder()
        builder.set_insertion_point_to_end(loop.body)
        a = builder.insert(arith.ConstantOp(1.0, f32))
        builder.insert(arith.AddFOp(a.result(), a.result()))
        clone = loop.clone()
        cloned_add = clone.body.operations[1]
        assert cloned_add.operand(0) is clone.body.operations[0].result()

    def test_clone_preserves_class_and_attrs(self):
        loop = AffineForOp.constant_bounds(2, 10, 2)
        clone = loop.clone()
        assert isinstance(clone, AffineForOp)
        assert clone.constant_lower_bound == 2
        assert clone.step == 2

    def test_clone_module_keeps_function_count(self):
        module = ModuleOp("m")
        func.build_function(module, "a", [f32])
        func.build_function(module, "b", [f32])
        clone = module.clone()
        assert len(clone.functions()) == 2

    def test_clone_with_external_value_map(self):
        block = Block([f32])
        add = arith.AddFOp(block.arguments[0], block.arguments[0])
        replacement_block = Block([f32])
        clone = add.clone({block.arguments[0]: replacement_block.arguments[0]})
        assert clone.operand(0) is replacement_block.arguments[0]


class TestDismantle:
    def test_nothing_is_left_for_the_cyclic_collector(self):
        from repro.pipeline import compile_kernel

        module = compile_kernel("gemm", 4)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            module.dismantle()
            del module
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_a_dismantled_nest_leaves_its_function_valid(self):
        from repro.pipeline import compile_kernel
        from repro.transforms.composite import design_nest

        module = compile_kernel("gemm", 4)
        func_op = module.function("gemm")
        nest = design_nest(func_op)
        nest.dismantle()
        assert nest.parent is None and design_nest(func_op) is None
        assert not any(argument.has_uses()
                       for argument in func_op.region(0).front.arguments)
        verify(module)


class TestFlatEncoding:
    """An op pickles the tree it roots through ``repro.ir.encoding``."""

    def test_a_round_trip_keeps_the_tree_and_its_use_order(self):
        import pickle

        from repro.ir.printer import print_op
        from repro.pipeline import compile_kernel

        module = compile_kernel("gemm", 4)
        revived = pickle.loads(pickle.dumps(module))
        assert type(revived) is type(module)
        assert print_op(revived, stable_ids=True) == \
            print_op(module, stable_ids=True)
        mine, theirs = list(module.walk()), list(revived.walk())
        assert [type(op) for op in theirs] == [type(op) for op in mine]
        index = {id(op): position for position, op in enumerate(theirs)}
        for old, new in zip(mine, theirs):
            assert [result.type for result in new.results] == \
                [result.type for result in old.results]
            for result in new.results:
                assert all(use.owner.operand(use.index) is result
                           for use in result.uses)
            assert new.parent is None or index[id(new.parent_op)] == \
                mine.index(old.parent_op)
        verify(revived)

    def test_shared_attribute_dicts_stay_shared_and_copy_on_write(self):
        import pickle

        module = ModuleOp()
        first = module.append(Operation("t.op", attributes={"n": 1}))
        module.append(first.clone())
        one, two = pickle.loads(pickle.dumps(module)).body.operations
        assert one._attributes is two._attributes
        one.set_attr("n", 2)
        assert (one.get_attr("n"), two.get_attr("n")) == (2, 1)

    def test_a_use_from_outside_the_tree_is_not_encoded(self):
        import pickle

        module = ModuleOp()
        constant = module.append(arith.ConstantOp(1, index))
        module.append(arith.AddIOp(constant.result(), constant.result()))
        arith.AddIOp(constant.result(), constant.result())  # never inserted
        assert constant.result().num_uses() == 4
        revived = pickle.loads(pickle.dumps(module))
        assert revived.body.operations[0].result().num_uses() == 2

    def test_an_operand_from_outside_the_tree_cannot_be_encoded(self):
        import pickle

        constant = arith.ConstantOp(1, index)
        orphan = arith.AddIOp(constant.result(), constant.result())
        with pytest.raises(ValueError, match="defined outside"):
            pickle.dumps(orphan)


class TestBlocksAndRegions:
    def test_insert_all_splices_in_order(self):
        block = Block()
        anchor = block.append(arith.ConstantOp(0.0, f32))
        ops = [arith.ConstantOp(float(i), f32) for i in range(3)]
        block.insert_all(1, ops)
        assert [op.get_attr("value") for op in block.operations[1:]] == [0.0, 1.0, 2.0]
        assert all(op.parent is block for op in ops)
        assert block.operations[0] is anchor

    def test_insert_before_after(self):
        block = Block()
        first = block.append(arith.ConstantOp(1.0, f32))
        second = arith.ConstantOp(2.0, f32)
        block.insert_before(first, second)
        assert block.index_of(second) == 0
        third = arith.ConstantOp(3.0, f32)
        block.insert_after(first, third)
        assert block.index_of(third) == 2

    def test_region_front_back(self):
        module = ModuleOp("m")
        region = module.region(0)
        assert region.front is region.back

    def test_empty_region_front_raises(self):
        op = Operation("test.op", num_regions=1)
        with pytest.raises(IndexError):
            op.region(0).front


class TestModuleAndBuilder:
    def test_module_lookup(self):
        module = ModuleOp("m")
        f = func.build_function(module, "kernel", [f32])
        assert module.lookup("kernel") is f
        assert module.lookup("missing") is None

    def test_builder_insertion_points(self):
        block = Block()
        builder = Builder(InsertionPoint.at_end(block))
        first = builder.insert(arith.ConstantOp(1.0, f32))
        builder.set_insertion_point_before(first)
        second = builder.insert(arith.ConstantOp(2.0, f32))
        assert block.operations[0] is second

    def test_builder_context_manager_restores_point(self):
        block_a, block_b = Block(), Block()
        builder = Builder(InsertionPoint.at_end(block_a))
        with builder.at_end(block_b):
            builder.insert(arith.ConstantOp(1.0, f32))
        builder.insert(arith.ConstantOp(2.0, f32))
        assert len(block_a) == 1 and len(block_b) == 1

    def test_builder_without_point_raises(self):
        with pytest.raises(RuntimeError):
            Builder().insert(arith.ConstantOp(1.0, f32))


class TestVerifier:
    def test_valid_module_verifies(self):
        module = ModuleOp("m")
        f = func.build_function(module, "f", [MemRefType((4,), f32)])
        builder = Builder(InsertionPoint.at_end(f.body))
        c = builder.insert(arith.ConstantOp(0, index))
        v = builder.insert(arith.ConstantOp(1.0, f32))
        builder.insert(memref.StoreOp(v.result(), f.arguments[0], [c.result()]))
        builder.insert(func.ReturnOp())
        verify(module)

    def test_use_before_def_detected(self):
        module = ModuleOp("m")
        f = func.build_function(module, "f", [])
        late = arith.ConstantOp(1.0, f32)
        early = arith.AddFOp(late.result(), late.result())
        f.body.append(early)
        f.body.append(late)
        with pytest.raises(VerificationError):
            verify(module)

    def test_stale_parent_detected(self):
        module = ModuleOp("m")
        f = func.build_function(module, "f", [])
        orphan = arith.ConstantOp(1.0, f32)
        f.body.append(orphan)
        orphan.parent = Block()  # corrupt the link on purpose
        with pytest.raises(VerificationError):
            verify(module)

    def test_nested_use_of_later_defined_value_detected(self):
        # A region nested mid-block must not see values defined after its
        # enclosing op; the order-key dominance walk has to catch this.
        module = ModuleOp("m")
        f = func.build_function(module, "f", [])
        late = arith.ConstantOp(1.0, f32)
        wrapper = Operation("test.wrap", num_regions=1)
        inner = wrapper.region(0).add_block(Block())
        inner.append(arith.AddFOp(late.result(), late.result()))
        f.body.append(wrapper)
        f.body.append(late)
        with pytest.raises(VerificationError, match="before its definition"):
            verify(module, require_terminators=False)


class TestDefinedAbove:
    def nested_function(self):
        """A function with a wrapper op whose region uses outer values."""
        module = ModuleOp("m")
        f = func.build_function(module, "f", [f32])
        builder = Builder(InsertionPoint.at_end(f.body))
        before = builder.insert(arith.ConstantOp(1.0, f32))
        wrapper = builder.insert(Operation("test.wrap", num_regions=1))
        inner = wrapper.region(0).add_block(Block())
        inner_op = arith.AddFOp(before.result(), before.result())
        inner.append(inner_op)
        after = builder.insert(arith.ConstantOp(2.0, f32))
        builder.insert(func.ReturnOp())
        return f, inner, before, after, inner_op

    def test_matches_values_defined_above(self):
        from repro.ir.traversal import is_defined_above, values_defined_above

        f, inner, *_ = self.nested_function()
        visible = values_defined_above(inner)
        candidates = list(f.arguments)
        for op in f.walk():
            candidates.extend(op.results)
        assert visible  # the set form sees the argument and `before`
        for value in candidates:
            assert is_defined_above(value, inner) == (value in visible), value

    def test_later_definitions_are_not_above(self):
        from repro.ir.traversal import is_defined_above

        _, inner, before, after, inner_op = self.nested_function()
        assert is_defined_above(before.result(), inner)
        assert not is_defined_above(after.result(), inner)
        assert not is_defined_above(inner_op.result(), inner)  # same block


class TestPrinter:
    def test_printed_module_mentions_ops(self, gemm_module):
        text = ir.print_op(gemm_module)
        assert "affine.for" in text
        assert "func.func" in text
        assert "arith.mulf" in text

    def test_printer_numbers_results(self):
        block = Block()
        block.append(arith.ConstantOp(1.0, f32))
        text = ir.Printer().print(block.operations[0])
        assert text.startswith("%0 = ")

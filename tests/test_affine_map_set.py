"""Tests for affine maps, integer sets and the partition layout encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.affine import AffineMap, Constraint, IntegerSet, constant, dim
from repro.ir.types import MemRefType, PartitionKind, build_partition_map, f32


class TestAffineMap:
    def test_identity(self):
        identity = AffineMap.identity(3)
        assert identity.is_identity()
        assert identity.evaluate([4, 5, 6]) == (4, 5, 6)

    def test_constant_map(self):
        assert AffineMap.constant_map(16).single_constant_result() == 16

    def test_is_constant(self):
        assert AffineMap(0, 0, [constant(1), constant(2)]).constant_results() == (1, 2)

    def test_non_constant_raises_on_constant_results(self):
        with pytest.raises(ValueError):
            AffineMap.identity(1).constant_results()

    def test_out_of_range_dim_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(1, 0, [dim(3)])

    def test_evaluate_checks_arity(self):
        with pytest.raises(ValueError):
            AffineMap.identity(2).evaluate([1])

    def test_compose_with_identity(self):
        affine_map = AffineMap(2, 0, [dim(0) + dim(1), dim(0) * 2])
        composed = affine_map.compose(AffineMap.identity(2))
        assert composed.evaluate([3, 4]) == affine_map.evaluate([3, 4])

    def test_compose_substitutes_results(self):
        outer = AffineMap(1, 0, [dim(0) * 2])
        inner = AffineMap(2, 0, [dim(0) + dim(1)])
        composed = outer.compose(inner)
        assert composed.evaluate([3, 4]) == (14,)

    def test_compose_arity_mismatch(self):
        with pytest.raises(ValueError):
            AffineMap.identity(2).compose(AffineMap.identity(3))

    def test_used_dims(self):
        affine_map = AffineMap(3, 0, [dim(0), dim(2)])
        assert affine_map.used_dims() == {0, 2}

    def test_sub_map(self):
        affine_map = AffineMap(2, 0, [dim(0), dim(1), dim(0) + dim(1)])
        assert affine_map.get_sub_map([2]).evaluate([2, 3]) == (5,)

    def test_equality_and_hash(self):
        assert AffineMap.identity(2) == AffineMap.identity(2)
        assert hash(AffineMap.identity(2)) == hash(AffineMap.identity(2))

    def test_str_contains_arrow(self):
        assert "->" in str(AffineMap.identity(1))

    def test_pickle_does_not_carry_the_print_cache(self):
        import pickle

        from repro.dse.space import ir_digest
        from repro.ir.printer import print_op
        from repro.pipeline import compile_kernel

        module = compile_kernel("gemm", 4)
        unprinted = len(pickle.dumps(module))
        print_op(module)
        ir_digest(module.functions()[0])
        assert len(pickle.dumps(module)) == unprinted

        affine_map = AffineMap(2, 0, [dim(0) + dim(1), dim(0) * 2])
        text = str(affine_map)
        restored = pickle.loads(pickle.dumps(affine_map))
        assert "_str" in vars(affine_map) and "_str" not in vars(restored)
        assert restored == affine_map and str(restored) == text


class TestIntegerSet:
    def test_equality_constraint(self):
        condition = IntegerSet.equality(1, dim(0) - 3)
        assert condition.contains([3])
        assert not condition.contains([4])

    def test_inequality_constraint(self):
        condition = IntegerSet.non_negative(1, dim(0) - 2)
        assert condition.contains([2])
        assert not condition.contains([1])

    def test_conjunction(self):
        box = IntegerSet(2, 0, [
            Constraint(dim(0), False),
            Constraint(constant(4) - dim(0), False),
            Constraint(dim(1) - dim(0), False),
        ])
        assert box.contains([2, 3])
        assert not box.contains([2, 1])

    def test_empty_constraints_rejected(self):
        with pytest.raises(ValueError):
            IntegerSet(1, 0, [])

    def test_from_constraints_length_mismatch(self):
        with pytest.raises(ValueError):
            IntegerSet.from_constraints(1, [dim(0)], [])

    def test_trivially_true_over_domain(self):
        condition = IntegerSet.non_negative(1, dim(0))
        assert condition.is_trivially_true_over([(0, 8)])

    def test_trivially_false_over_domain(self):
        condition = IntegerSet.non_negative(1, dim(0) - 100)
        assert condition.is_trivially_false_over([(0, 8)])

    def test_replace_dims(self):
        condition = IntegerSet.equality(2, dim(0) - dim(1))
        replaced = condition.replace_dims({1: constant(5)})
        assert replaced.contains([5, 0])

    def test_used_dims(self):
        condition = IntegerSet.equality(3, dim(2) - 1)
        assert condition.used_dims() == {2}


class TestPartitionLayout:
    def test_default_partition_is_none(self):
        memref = MemRefType((16, 8), f32)
        assert memref.num_partitions == 1
        assert all(kind == PartitionKind.NONE for kind, _ in memref.partition)

    def test_cyclic_partition_map_matches_paper_figure3b(self):
        """Fig. 3(b): cyclic factor 2 along dim 0 -> (d0 mod 2, 0, d0 floordiv 2, d1)."""
        layout = build_partition_map((16, 8), [(PartitionKind.CYCLIC, 2),
                                               (PartitionKind.NONE, 1)])
        assert layout.evaluate([5, 3]) == (1, 0, 2, 3)

    def test_block_partition_map_matches_paper_figure3c_dim1(self):
        layout = build_partition_map((16, 8), [(PartitionKind.NONE, 1),
                                               (PartitionKind.BLOCK, 4)])
        # Block partition with 8/4 = 2 elements per bank.
        assert layout.evaluate([0, 5]) == (0, 2, 0, 1)

    def test_with_partition_updates_banks(self):
        memref = MemRefType((16, 16), f32)
        partitioned = memref.with_partition([(PartitionKind.CYCLIC, 2),
                                             (PartitionKind.CYCLIC, 4)])
        assert partitioned.num_partitions == 8

    def test_bank_of_cyclic(self):
        memref = MemRefType((16,), f32).with_partition([(PartitionKind.CYCLIC, 4)])
        assert memref.bank_of([6]) == (2,)

    def test_complete_partition(self):
        memref = MemRefType((4,), f32).with_partition([(PartitionKind.COMPLETE, 4)])
        assert memref.num_partitions == 4
        assert memref.bank_of([3]) == (3,)

    def test_unknown_partition_kind_rejected(self):
        with pytest.raises(ValueError):
            build_partition_map((4,), [("diagonal", 2)])


@given(st.integers(0, 255), st.integers(1, 16))
def test_cyclic_partition_covers_all_elements(index, factor):
    """Every logical index maps to a unique (bank, offset) pair."""
    layout = build_partition_map((256,), [(PartitionKind.CYCLIC, factor)])
    bank, offset = layout.evaluate([index])
    assert 0 <= bank < factor
    assert bank + offset * factor == index


@given(st.integers(0, 255), st.integers(1, 16))
def test_block_partition_covers_all_elements(index, factor):
    layout = build_partition_map((256,), [(PartitionKind.BLOCK, factor)])
    bank, offset = layout.evaluate([index])
    block = -(-256 // factor)
    assert bank == index // block
    assert offset == index % block

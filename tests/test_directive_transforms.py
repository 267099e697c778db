"""Tests for the directive-level passes: pipelining and array partitioning."""

import numpy as np
import pytest

from repro import ir
from repro.dialects.affine_ops import AffineForOp, outermost_loops, perfect_loop_band
from repro.dialects.hlscpp import get_func_directive, get_loop_directive
from repro.frontend.pytorch_like import GraphBuilder
from repro.ir.interpreter import interpret_kernel
from repro.ir.pass_manager import PassError
from repro.ir.types import MemRefType, PartitionKind
from repro.pipeline import prepare_dnn_stages
from repro.transforms import (
    canonicalize,
    lower_graph_to_loops,
    partition_arrays,
    perfectize_band,
    pipeline_function,
    pipeline_loop,
    remove_variable_bounds,
    tile_loop_band,
)
from repro.transforms.directive.pipelining import LoopPipeliningPass

from conftest import GEMM_SOURCE, compile_source, random_array, reference_gemm


class TestLoopPipelining:
    def test_innermost_pipelining_sets_directive(self, gemm_module):
        f = gemm_module.functions()[0]
        band = perfect_loop_band(outermost_loops(f)[0])
        innermost = [op for op in f.walk() if isinstance(op, AffineForOp)][-1]
        pipeline_loop(innermost, target_ii=2)
        directive = get_loop_directive(innermost)
        assert directive.pipeline
        assert directive.target_ii == 2

    def test_nested_loops_fully_unrolled(self, gemm_module):
        f = gemm_module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        band = perfect_loop_band(outermost_loops(f)[0])
        middle = band[1]
        unrolled = pipeline_loop(middle, target_ii=1)
        assert unrolled == 1
        assert not any(isinstance(op, AffineForOp) for op in middle.walk() if op is not middle)

    def test_perfect_parents_marked_flatten(self, gemm_module):
        f = gemm_module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        band = perfect_loop_band(outermost_loops(f)[0])
        pipeline_loop(band[-1], target_ii=1)
        for loop in band[:-1]:
            directive = get_loop_directive(loop)
            assert directive is not None and directive.flatten

    def test_variable_bound_nested_loop_rejected(self, syrk_module):
        f = syrk_module.functions()[0]
        outer = outermost_loops(f)[0]
        with pytest.raises(PassError):
            pipeline_loop(outer, target_ii=1)

    def test_pipelining_preserves_semantics(self, gemm_module):
        f = gemm_module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        band = perfect_loop_band(outermost_loops(f)[0])
        pipeline_loop(band[-1], target_ii=1)
        canonicalize(f)
        ir.verify(gemm_module)
        C = random_array((8, 8), seed=1)
        A = random_array((8, 8), seed=2)
        B = random_array((8, 8), seed=3)
        expected = reference_gemm(1.0, 1.0, C, A, B)
        interpret_kernel(gemm_module, "gemm", {"C": C, "A": A, "B": B},
                         {"alpha": 1.0, "beta": 1.0})
        np.testing.assert_allclose(C, expected, rtol=1e-4)

    def test_pipelining_pass_targets_innermost(self, gemm_module):
        LoopPipeliningPass(target_ii=1).run_on_module(gemm_module)
        pipelined = [op for op in gemm_module.walk()
                     if isinstance(op, AffineForOp) and get_loop_directive(op)
                     and get_loop_directive(op).pipeline]
        assert len(pipelined) >= 1

    def test_function_pipelining(self):
        module = compile_source("""
        void small(float A[4]) {
          for (int i = 0; i < 4; i++) { A[i] *= 2.0; }
        }""", "small")
        f = module.functions()[0]
        pipeline_function(f, target_ii=1)
        directive = get_func_directive(f)
        assert directive.pipeline
        assert not any(isinstance(op, AffineForOp) for op in f.walk())


class TestArrayPartition:
    def optimized_gemm(self, tile_sizes):
        module = compile_source(GEMM_SOURCE, "gemm")
        f = module.functions()[0]
        perfectize_band(outermost_loops(f)[0])
        band = perfect_loop_band(outermost_loops(f)[0])
        tile_loops, _ = tile_loop_band(band, tile_sizes)
        pipeline_loop(tile_loops[-1], 1)
        canonicalize(f)
        return module, f

    def test_unrolled_accesses_drive_partition_factors(self):
        module, f = self.optimized_gemm([1, 1, 4])
        plans = partition_arrays(f)
        by_name = {self._arg_name(f, plan.memref): plan for plan in plans}
        # Unrolling k by 4: A's column dim and B's row dim need 4 banks.
        assert by_name["A"].factors[1] == 4
        assert by_name["B"].factors[0] == 4

    def test_partition_encoded_into_type(self):
        module, f = self.optimized_gemm([1, 1, 4])
        partition_arrays(f)
        a_type: MemRefType = f.arguments[3].type
        assert a_type.num_partitions >= 4
        assert a_type.layout_map.num_results == 2 * a_type.rank

    def test_function_type_updated(self):
        module, f = self.optimized_gemm([1, 1, 4])
        partition_arrays(f)
        assert f.get_attr("function_type").inputs[3] == f.arguments[3].type

    def test_no_partition_without_parallel_accesses(self, gemm_module):
        f = gemm_module.functions()[0]
        plans = partition_arrays(f)
        assert all(all(factor <= 1 for factor in plan.factors) for plan in plans) or not plans

    def test_explicit_factors_override(self):
        module, f = self.optimized_gemm([1, 1, 4])
        plans = partition_arrays(f, part_factors={"arg2": [2, 8]})
        by_arg = {self._arg_index(f, plan.memref): plan for plan in plans}
        assert by_arg[2].factors == (2, 8)

    def test_unnamed_allocations_are_pinned_by_program_order(self):
        # ``buffer_name`` is a label; without it an allocation is known by
        # its index among the function's allocations — the same in every
        # process, and never two buffers under one name.
        builder = GraphBuilder("net", (1, 3, 8, 8))
        module = builder.finish(
            builder.conv_bn_relu(builder.input, 8, 3, stride=1, padding=1))
        prepare_dnn_stages(module, 0)
        lower_graph_to_loops(module)
        f = module.functions()[0]
        allocs = [op for op in f.walk() if op.name == "memref.alloc"]
        assert len(allocs) >= 3
        kept = allocs[1].get_attr("buffer_name")
        for op in (allocs[0], allocs[2]):
            op.remove_attr("buffer_name")
        pins = {"buffer0": [1] * allocs[0].result().type.rank,
                "buffer2": [1] * allocs[2].result().type.rank,
                kept: [1] * allocs[1].result().type.rank}
        pins["buffer0"][-1], pins["buffer2"][-1], pins[kept][-1] = 2, 4, 8
        by_memref = {plan.memref: plan.factors
                     for plan in partition_arrays(f, part_factors=pins)}
        for op, name in ((allocs[0], "buffer0"), (allocs[2], "buffer2"),
                         (allocs[1], kept)):
            assert by_memref[op.result()] == tuple(pins[name])

    def test_cyclic_fashion_for_dense_unrolled_accesses(self):
        module, f = self.optimized_gemm([1, 1, 4])
        plans = partition_arrays(f)
        for plan in plans:
            for kind, factor in plan.partition:
                if factor > 1:
                    assert kind in (PartitionKind.CYCLIC, PartitionKind.BLOCK)

    def test_max_factor_cap(self):
        module, f = self.optimized_gemm([1, 1, 8])
        plans = partition_arrays(f, max_factor=2)
        assert all(factor <= 2 for plan in plans for factor in plan.factors)

    @staticmethod
    def _arg_index(func_op, value):
        for position, argument in enumerate(func_op.region(0).front.arguments):
            if argument is value:
                return position
        return -1

    def _arg_name(self, func_op, value):
        names = func_op.get_attr("arg_names") or []
        position = self._arg_index(func_op, value)
        return names[position] if 0 <= position < len(names) else f"arg{position}"

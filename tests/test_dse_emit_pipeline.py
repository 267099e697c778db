"""Tests for the DSE engine, the C++ emitter and the end-to-end pipelines."""

import dataclasses
import random

import numpy as np
import pytest

from repro import ir
from repro.dse import (
    KernelDesignPoint,
    KernelDesignSpace,
    ParetoPoint,
    apply_design_point,
    dominates,
    pareto_frontier,
)
from repro.dse.apply import estimate_baseline
from repro.dse.pareto import hypervolume, is_pareto_optimal
from repro.emit import emit_hlscpp
from repro.estimation import XC7Z020, VU9P_SLR
from repro.ir.interpreter import interpret_kernel
from repro.pipeline import (
    compile_dnn,
    compile_kernel,
    dnn_baseline,
    explore_kernel,
    kernel_baseline,
    optimize_kernel,
)

from conftest import GEMM_SOURCE, compile_source, random_array, reference_gemm


class TestDesignSpace:
    def space(self, module=None):
        module = module or compile_source(GEMM_SOURCE, "gemm")
        return KernelDesignSpace.from_function(module.functions()[0]), module

    def test_dimensions_cover_all_parameters(self):
        space, _ = self.space()
        # LP, RVB, permutation, one tile dim per loop, II; the cleanup
        # pipeline is decided, not a dimension.
        assert space.num_dimensions == 3 + 3 + 1
        assert space.num_points > 100
        assert space.pipeline_options == ["default"]

    def test_the_pipeline_dimension_exists_only_with_a_choice(self):
        import cleanups

        func_op = compile_source(GEMM_SOURCE, "gemm").functions()[0]
        one = KernelDesignSpace.from_function(func_op)
        with cleanups.registered({"test-lean": "canonicalize,cse"}):
            self.check_both_shapes(
                one, KernelDesignSpace.from_function(func_op))

    @staticmethod
    def check_both_shapes(one, two):
        assert one.pipeline_options == ["default"]
        assert two.pipeline_options == ["default", "test-lean"]
        assert two.dimensions == one.dimensions + [two.pipeline_options]
        assert two.num_points == 2 * one.num_points
        assert two.fingerprint() != one.fingerprint()
        assert two.ii_dimension == one.ii_dimension == one.num_dimensions - 1
        rng = random.Random(5)
        for _ in range(20):
            encoded = one.random_point(rng)
            point = one.decode(encoded)
            assert point.pipeline == "default"
            for index, name in enumerate(two.pipeline_options):
                wider = encoded + (index,)
                assert two.decode(wider) == dataclasses.replace(
                    point, pipeline=name)
                assert two.encode_vector(wider) \
                    == one.encode_vector(encoded) + [float(index)]
                # Siblings differ in the target II alone, in both shapes.
                assert two.ii_siblings(wider) == [
                    (other + (index,), ii)
                    for other, ii in one.ii_siblings(encoded)]
            for other, ii in one.ii_siblings(encoded):
                assert one.decode(other) == dataclasses.replace(
                    point, target_ii=ii)
                assert encoded in [back for back, _ in one.ii_siblings(other)]

    def test_decode_produces_valid_point(self):
        space, _ = self.space()
        point = space.decode(space.random_point(__import__("random").Random(0)))
        assert isinstance(point, KernelDesignPoint)
        assert len(point.tile_sizes) == 3
        assert sorted(point.perm_map) == [0, 1, 2]

    def test_tile_product_clamped(self):
        space, _ = self.space()
        encoded = [0] * space.num_dimensions
        # Force the largest tile option in every tile dimension.
        for dim_index in range(3, 6):
            encoded[dim_index] = len(space.dimensions[dim_index]) - 1
        point = space.decode(encoded)
        product = 1
        for tile in point.tile_sizes:
            product *= tile
        assert product <= KernelDesignSpace.MAX_UNROLL_PRODUCT

    def test_neighbors_differ_in_one_dimension(self):
        space, _ = self.space()
        encoded = tuple([0] * space.num_dimensions)
        for neighbor in space.neighbors(encoded):
            differences = sum(1 for a, b in zip(encoded, neighbor) if a != b)
            assert differences == 1

    def test_neighbors_stay_in_range(self):
        space, _ = self.space()
        encoded = tuple(len(options) - 1 for options in space.dimensions)
        for neighbor in space.neighbors(encoded):
            for index, options in zip(neighbor, space.dimensions):
                assert 0 <= index < len(options)

    def test_syrk_space_includes_lp_and_rvb(self, syrk_module):
        space = KernelDesignSpace.from_function(syrk_module.functions()[0])
        assert True in space.lp_options
        assert True in space.rvb_options

    def test_encode_vector_matches_dimensionality(self):
        space, _ = self.space()
        vector = space.encode_vector([0] * space.num_dimensions)
        assert len(vector) == 2 + 3 + 3 + 1


class TestPareto:
    def test_dominates(self):
        a = ParetoPoint(10, 5, (0,))
        b = ParetoPoint(20, 7, (1,))
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_frontier_extraction(self):
        points = [ParetoPoint(10, 10, (0,)), ParetoPoint(5, 20, (1,)),
                  ParetoPoint(20, 5, (2,)), ParetoPoint(12, 12, (3,))]
        frontier = pareto_frontier(points)
        encoded = {p.encoded for p in frontier}
        assert encoded == {(0,), (1,), (2,)}

    def test_frontier_sorted_by_latency(self):
        points = [ParetoPoint(30, 1, (0,)), ParetoPoint(10, 3, (1,)), ParetoPoint(20, 2, (2,))]
        frontier = pareto_frontier(points)
        assert [p.latency for p in frontier] == [10, 20, 30]

    def test_is_pareto_optimal(self):
        points = [ParetoPoint(10, 10, (0,)), ParetoPoint(5, 20, (1,))]
        assert is_pareto_optimal(points[0], points)

    def test_hypervolume_improves_with_better_points(self):
        frontier_a = [ParetoPoint(10, 10, (0,))]
        frontier_b = [ParetoPoint(5, 5, (1,))]
        reference = (100.0, 100.0)
        assert hypervolume(frontier_b, reference) > hypervolume(frontier_a, reference)


class TestApplyAndExplore:
    def test_apply_design_point_improves_latency(self, gemm_module):
        baseline = estimate_baseline(gemm_module, XC7Z020)
        point = KernelDesignPoint(True, False, (1, 2, 0), (1, 1, 4), 1)
        design = apply_design_point(gemm_module, point, XC7Z020)
        assert design.qor.latency < baseline.latency
        assert design.achieved_ii is not None
        ir.verify(design.module)

    def test_apply_does_not_mutate_original(self, gemm_module):
        before = ir.print_op(gemm_module)
        apply_design_point(gemm_module, KernelDesignPoint(True, False, (0, 1, 2), (1, 1, 2), 1),
                           XC7Z020)
        assert ir.print_op(gemm_module) == before

    def test_applied_design_preserves_semantics(self, gemm_module):
        point = KernelDesignPoint(True, False, (1, 2, 0), (2, 1, 2), 1)
        design = apply_design_point(gemm_module, point, XC7Z020)
        C = random_array((8, 8), seed=5)
        A = random_array((8, 8), seed=6)
        B = random_array((8, 8), seed=7)
        expected = reference_gemm(1.5, 0.5, C, A, B)
        interpret_kernel(design.module, "gemm", {"C": C, "A": A, "B": B},
                         {"alpha": 1.5, "beta": 0.5})
        np.testing.assert_allclose(C, expected, rtol=1e-4)

    def test_explorer_finds_design_within_budget(self, gemm_module):
        result = explore_kernel(gemm_module, XC7Z020, num_samples=6,
                                max_iterations=6, seed=7, batch_size=1)
        best = result.best_design()
        assert best is not None
        assert result.num_evaluations >= 6
        assert best.qor.dsp <= XC7Z020.dsp
        assert result.frontier

    def test_explorer_beats_baseline(self, gemm_module):
        baseline = estimate_baseline(gemm_module, XC7Z020)
        result = explore_kernel(gemm_module, XC7Z020, num_samples=6,
                                max_iterations=6, seed=3, batch_size=1)
        assert result.best_design().qor.latency < baseline.latency

    def test_explorer_frontier_is_non_dominated(self, gemm_module):
        result = explore_kernel(gemm_module, XC7Z020, num_samples=6,
                                max_iterations=4, seed=1, batch_size=1)
        frontier = result.frontier
        for point in frontier:
            assert is_pareto_optimal(point, frontier)


class TestEmitter:
    def optimized_design(self, gemm_module):
        point = KernelDesignPoint(True, False, (1, 2, 0), (1, 1, 2), 1)
        return apply_design_point(gemm_module, point, XC7Z020)

    def test_emitted_code_structure(self, gemm_module):
        design = self.optimized_design(gemm_module)
        code = emit_hlscpp(design.module)
        assert "void gemm(" in code
        assert "#pragma HLS pipeline" in code
        assert "#pragma HLS array_partition" in code
        assert "#pragma HLS resource" in code
        assert code.count("for (") >= 2

    def test_parameter_names_preserved(self, gemm_module):
        code = emit_hlscpp(gemm_module)
        assert "float C[8][8]" in code
        assert "float alpha" in code

    def test_balanced_braces_and_parens(self, gemm_module):
        design = self.optimized_design(gemm_module)
        code = emit_hlscpp(design.module)
        assert code.count("{") == code.count("}")
        assert code.count("(") == code.count(")")

    def test_if_conditions_emitted(self, syrk_module):
        from repro.dse.apply import optimize_kernel_module

        optimized, _ = optimize_kernel_module(
            syrk_module, KernelDesignPoint(True, True, (1, 2, 0), (1, 1, 1), 1))
        code = emit_hlscpp(optimized)
        assert "if (" in code

    def test_dnn_emission_includes_dataflow(self):
        result = compile_dnn("mobilenet", graph_level=2, loop_level=1, directive_level=True)
        code = emit_hlscpp(result.module)
        assert "#pragma HLS dataflow" in code
        assert "forward_dataflow0" in code


class TestPipelines:
    def test_compile_kernel_all_names(self):
        from repro.kernels import KERNEL_NAMES

        for name in KERNEL_NAMES:
            module = compile_kernel(name, 8)
            assert module.functions()[0].get_attr("sym_name") == name

    def test_kernel_optimization_improves_baseline(self):
        module = compile_kernel("gemm", 32)
        baseline = kernel_baseline(module)
        design = optimize_kernel(module, KernelDesignPoint(True, False, (1, 2, 0), (1, 1, 8), 1))
        assert baseline.latency / design.qor.latency > 10

    def test_dnn_baseline_and_optimized_ordering(self):
        baseline = dnn_baseline("mobilenet")
        directive_only = compile_dnn("mobilenet", graph_level=0, loop_level=0,
                                     directive_level=True)
        combined = compile_dnn("mobilenet", graph_level=3, loop_level=3, directive_level=True)
        assert directive_only.qor.interval < baseline.qor.interval
        assert combined.qor.interval < directive_only.qor.interval

    def test_dnn_graph_level_controls_stage_count(self):
        coarse = compile_dnn("mobilenet", graph_level=1, loop_level=1, directive_level=True)
        fine = compile_dnn("mobilenet", graph_level=4, loop_level=1, directive_level=True)
        assert fine.num_dataflow_stages >= coarse.num_dataflow_stages

    def test_dnn_result_reports_runtime_and_efficiency(self):
        result = compile_dnn("mobilenet", graph_level=2, loop_level=2, directive_level=True)
        assert result.runtime_seconds > 0
        assert result.dsp_efficiency > 0
        assert result.flops > 1e7

"""Tests for the reference interpreter, the PolyBench kernel generators and
the end-to-end semantic equivalence of optimized kernels."""

import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ir
from repro.dialects import arith, func, memref
from repro.dialects.affine_ops import AffineForOp, AffineLoadOp, AffineStoreOp
from repro.dse import apply_design_point
from repro.dse.space import KernelDesignPoint
from repro.estimation import XC7Z020
from repro.ir import Builder, InsertionPoint, MemRefType, ModuleOp, f32, index
from repro.ir.interpreter import Interpreter, InterpreterError, interpret_kernel
from repro.kernels import KERNEL_NAMES, kernel_source
from repro.pipeline import compile_kernel

from conftest import compile_source

#: The NumPy references of the Table III kernels the end-to-end benchmark
#: checks its outputs against (``benchmarks/e2e/references.py``: inputs,
#: ``SCALARS`` and the expected arrays), loaded by path: the benchmark's
#: modules are not importable by name from the test session.
_SPEC = importlib.util.spec_from_file_location(
    "references",
    pathlib.Path(__file__).parents[1] / "benchmarks" / "e2e" / "references.py")
references = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(references)


def assert_computes_the_reference(module, name, size, seed, context=""):
    """Interpreting ``name`` in ``module`` on seeded inputs leaves every
    array it writes as ``references.reference`` computes it."""
    arrays = references.kernel_arrays(name, size, np.random.default_rng(seed))
    expected = references.reference(name, arrays)
    interpret_kernel(module, name, arrays, references.SCALARS)
    for key, reference_value in expected.items():
        np.testing.assert_allclose(arrays[key], reference_value, rtol=1e-4,
                                   err_msg=f"{context}{name}: {key}")


class TestInterpreterBasics:
    def build_accumulate(self):
        """out[0] = sum of A[0..7]"""
        module = ModuleOp("m")
        f = func.build_function(module, "accumulate",
                                [MemRefType((8,), f32), MemRefType((1,), f32)])
        builder = Builder(InsertionPoint.at_end(f.body))
        loop = builder.insert(AffineForOp.constant_bounds(0, 8))
        body = Builder(InsertionPoint.at_end(loop.body))
        zero = body.insert(arith.ConstantOp(0, index))
        value = body.insert(AffineLoadOp(f.arguments[0], [loop.induction_variable]))
        accumulator = body.insert(AffineLoadOp(f.arguments[1], [zero.result()]))
        total = body.insert(arith.AddFOp(accumulator.result(), value.result()))
        body.insert(AffineStoreOp(total.result(), f.arguments[1], [zero.result()]))
        builder.insert(func.ReturnOp())
        return module, f

    def test_loop_accumulation(self):
        module, f = self.build_accumulate()
        A = np.arange(8, dtype=np.float32)
        out = np.zeros(1, dtype=np.float32)
        Interpreter(module).run_function(f, [A, out])
        assert out[0] == pytest.approx(A.sum())

    def test_argument_count_checked(self):
        module, f = self.build_accumulate()
        with pytest.raises(InterpreterError):
            Interpreter(module).run_function(f, [np.zeros(8, dtype=np.float32)])

    def test_call_requires_module(self):
        module = ModuleOp("m")
        f = func.build_function(module, "caller", [])
        builder = Builder(InsertionPoint.at_end(f.body))
        builder.insert(func.CallOp("missing", [], []))
        builder.insert(func.ReturnOp())
        with pytest.raises(InterpreterError):
            Interpreter(None).run_function(f, [])

    def test_alloc_creates_zero_buffer(self):
        module = ModuleOp("m")
        f = func.build_function(module, "f", [MemRefType((1,), f32)])
        builder = Builder(InsertionPoint.at_end(f.body))
        buffer = builder.insert(memref.AllocOp(MemRefType((4,), f32)))
        zero = builder.insert(arith.ConstantOp(0, index))
        value = builder.insert(AffineLoadOp(buffer.result(), [zero.result()]))
        builder.insert(AffineStoreOp(value.result(), f.arguments[0], [zero.result()]))
        builder.insert(func.ReturnOp())
        out = np.ones(1, dtype=np.float32)
        Interpreter(module).run_function(f, [out])
        assert out[0] == 0.0

    def test_cross_function_call(self):
        """A call in the top function executes the callee on the same buffers."""
        module = compile_source("""
        void double_all(float A[4]) {
          for (int i = 0; i < 4; i++) { A[i] *= 2.0; }
        }""", "m")
        callee = module.functions()[0]
        top = func.build_function(module, "top", [MemRefType((4,), f32)])
        builder = Builder(InsertionPoint.at_end(top.body))
        builder.insert(func.CallOp("double_all", [top.arguments[0]], []))
        builder.insert(func.ReturnOp())
        A = np.ones(4, dtype=np.float32)
        Interpreter(module).run(top.get_attr("sym_name"), [A])
        np.testing.assert_allclose(A, 2.0)

    def test_unknown_op_rejected(self):
        module = ModuleOp("m")
        f = func.build_function(module, "f", [])
        f.body.append(ir.Operation("mystery.op"))
        f.body.append(func.ReturnOp())
        with pytest.raises(InterpreterError):
            Interpreter(module).run_function(f, [])


class TestKernelGenerators:
    def test_all_kernels_have_sources(self):
        for name in KERNEL_NAMES:
            source = kernel_source(name, 16)
            assert f"void {name}(" in source

    def test_problem_size_embedded(self):
        source = kernel_source("gemm", 64)
        assert "[64][64]" in source
        assert "i < 64" in source

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernel_source("fft", 64)

    def test_tiny_problem_size_rejected(self):
        with pytest.raises(ValueError):
            kernel_source("gemm", 1)

    def test_compiled_kernels_have_expected_loop_depth(self):
        expected_depth = {"bicg": 2, "gemm": 3, "gesummv": 2, "syr2k": 3,
                          "syrk": 3, "trmm": 3}
        for name, depth in expected_depth.items():
            module = compile_kernel(name, 8)
            loops = [op for op in module.walk() if isinstance(op, AffineForOp)]
            assert len(loops) == depth, name


class TestKernelSemantics:
    """The compiled kernels compute exactly what the NumPy references compute."""

    SIZE = 8

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_front_end_matches_reference(self, name):
        assert_computes_the_reference(compile_kernel(name, self.SIZE), name,
                                      self.SIZE, seed=3)

    @pytest.mark.parametrize("name", ["gemm", "syrk", "bicg"])
    def test_optimized_design_matches_reference(self, name):
        module = compile_kernel(name, self.SIZE)
        band_size = {"gemm": 3, "syrk": 3, "bicg": 2}[name]
        point = KernelDesignPoint(
            loop_perfectization=True, remove_variable_bound=True,
            perm_map=tuple(range(band_size)),
            tile_sizes=tuple([2] + [1] * (band_size - 1)), target_ii=1)
        design = apply_design_point(module, point, XC7Z020)
        assert_computes_the_reference(design.module, name, self.SIZE, seed=5)

    @settings(max_examples=6, deadline=None)
    @given(alpha=st.floats(-2, 2, allow_nan=False), beta=st.floats(-2, 2, allow_nan=False))
    def test_gemm_equivalence_for_random_scalars(self, alpha, beta):
        module = compile_kernel("gemm", 4)
        arrays = references.kernel_arrays("gemm", 4, np.random.default_rng(9))
        expected = beta * arrays["C"] + alpha * arrays["A"] @ arrays["B"]
        interpret_kernel(module, "gemm", arrays, {"alpha": alpha, "beta": beta})
        np.testing.assert_allclose(arrays["C"], expected, rtol=1e-3, atol=1e-5)

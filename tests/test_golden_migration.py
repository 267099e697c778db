"""Golden tests pinning the pass-infrastructure migration.

The files under ``tests/golden/`` were generated by the pre-registry code
(ad-hoc transform sequencing in ``pipeline.py`` / ``dse/apply.py`` and the
full-module fixpoint cleanup walkers).  The registry-driven pipelines and
the worklist rewrite driver must reproduce them *byte-identically* — same
emitted HLS C++, same QoR numbers, same (stable-id printed) DNN IR.

Two decisions moved them since, each recorded with its evidence in
``CHANGES.md`` (PR 23): ``cse`` keys on the result type (the mobilenet IR
hash; its QoR did not move), and the cleanup tail is the two-round pipeline
for every flow (``gemm8_tiled``'s C++, DSP and LUT; every trajectory of
``serial_engine_n8.json``, whose encoded points also lost the pipeline index).
A third (PR 24): unrolling never builds the branch an ``affine.if`` drops, so
what fed only that branch is erased by the first ``canonicalize`` and ``cse``
keeps the later, live load of ``C`` — the statement order of one load per
copy in ``gemm8_tiled``'s C++; its QoR and every DNN IR hash did not move.
"""

import hashlib
import json
import os

import pytest

from repro.dse.apply import apply_design_point, kernel_pipeline_spec
from repro.dse.space import KernelDesignPoint
from repro.emit.hlscpp_emitter import emit_hlscpp
from repro.ir.pass_registry import build_pipeline
from repro.ir.printer import Printer
from repro.pipeline import (
    FRONTEND_PIPELINE,
    compile_dnn,
    compile_kernel,
    explore_kernel,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

KERNEL_POINTS = {
    "gemm8_tiled": KernelDesignPoint(True, True, (1, 2, 0), (2, 1, 2), 1),
    "gemm8_plain": KernelDesignPoint(True, True, (0, 1, 2), (1, 1, 1), 1),
}


def _golden():
    with open(os.path.join(GOLDEN_DIR, "qor.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _serial_engine_runs():
    with open(os.path.join(GOLDEN_DIR, "serial_engine_n8.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


class TestSerialEngineGolden:
    """``serial_engine_n8.json`` was generated by the standalone serial
    explorer (one evaluation per iteration, one whole transformed module
    retained per point) before it was deleted: the one explorer at
    ``batch_size=1`` visits the same points in the same order, estimates the
    same QoR and finalizes the same design.  (Written again by that explorer
    when the cleanup-pipeline dimension left the default space: it pins the
    ``batch_size=1`` trajectories, no longer the deleted engine's.)"""

    @pytest.mark.parametrize("run", sorted(_serial_engine_runs()["runs"]))
    def test_batch_size_one_reproduces_the_serial_engine(self, run):
        golden = _serial_engine_runs()
        kernel, seed = run.split("-seed")
        result = explore_kernel(
            compile_kernel(kernel, golden["size"]),
            num_samples=golden["num_samples"],
            max_iterations=golden["max_iterations"], seed=int(seed),
            batch_size=1)
        assert [{"encoded": list(encoded), "latency": record.qor.latency,
                 "dsp": record.qor.dsp}
                for encoded, record in result.records.items()] \
            == golden["runs"][run]["visited"]
        assert list(result.best_record.encoded) == golden["runs"][run]["best"]
        assert result.best_design().qor == result.best_record.qor


class TestKernelFlowGolden:
    @pytest.mark.parametrize("key", sorted(KERNEL_POINTS))
    def test_emitted_cpp_byte_identical(self, key):
        module = compile_kernel("gemm", 8)
        design = apply_design_point(module, KERNEL_POINTS[key])
        with open(os.path.join(GOLDEN_DIR, f"{key}.cpp"), "r",
                  encoding="utf-8") as handle:
            assert emit_hlscpp(design.module) == handle.read()

    @pytest.mark.parametrize("key", sorted(KERNEL_POINTS))
    def test_qor_identical(self, key):
        module = compile_kernel("gemm", 8)
        design = apply_design_point(module, KERNEL_POINTS[key])
        golden = _golden()[key]
        assert design.qor.latency == golden["latency"]
        assert design.qor.dsp == golden["dsp"]
        assert design.qor.lut == golden["lut"]
        assert design.achieved_ii == golden["ii"]

    def test_replayed_pipeline_spec_matches_apply(self):
        """The printed per-point spec replays the evaluation exactly."""
        point = KERNEL_POINTS["gemm8_tiled"]
        design = apply_design_point(compile_kernel("gemm", 8), point)

        replayed = compile_kernel("gemm", 8)
        build_pipeline(kernel_pipeline_spec(point)).run(replayed.functions()[0])
        assert emit_hlscpp(replayed) == emit_hlscpp(design.module)


class TestDNNFlowGolden:
    def test_mobilenet_qor_and_ir_identical(self):
        result = compile_dnn("mobilenet", graph_level=2, loop_level=1,
                             directive_level=True)
        golden = _golden()["mobilenet_g2_l1_d"]
        assert result.qor.latency == golden["latency"]
        assert result.qor.interval == golden["interval"]
        assert result.qor.dsp == golden["dsp"]
        assert result.qor.lut == golden["lut"]
        assert result.num_dataflow_stages == golden["stages"]
        printed = Printer(stable_ids=True).print(result.module)
        assert hashlib.sha256(printed.encode("utf-8")).hexdigest() \
            == golden["ir_sha256"]


class TestDriverStrategies:
    """The worklist driver against what the deleted sweep strategy produced
    (``tests/golden/sweep_oracle.json``)."""

    def test_sweep_and_worklist_converge_to_identical_ir(self):
        from test_rewrite_engine import SWEEP_ORACLE, sha256

        design = apply_design_point(compile_kernel("gemm", 8),
                                    KERNEL_POINTS["gemm8_tiled"])
        assert sha256(emit_hlscpp(design.module)) \
            == SWEEP_ORACLE["gemm8_tiled_cpp_sha256"]

    def test_nested_use_dce_matches_sweep(self):
        """A value whose only user sits inside an erased region op must be
        DCE'd by the worklist driver exactly like the sweep oracle."""
        from repro.dialects import arith, func, memref
        from repro.dialects.affine_ops import AffineForOp, AffineStoreOp
        from repro.ir import Builder, InsertionPoint, MemRefType, ModuleOp, f32, index
        from repro.transforms import canonicalize
        from test_rewrite_engine import SWEEP_ORACLE

        module = ModuleOp("m")
        f = func.build_function(module, "f", [f32])
        builder = Builder(InsertionPoint.at_end(f.body))
        arg = f.body.arguments[0]
        add = builder.insert(arith.AddFOp(arg, arg))
        buffer = builder.insert(memref.AllocOp(MemRefType([4], f32)))
        zero_trip = builder.insert(AffineForOp.constant_bounds(0, 0))
        with builder.at_end(zero_trip.body):
            index_op = builder.insert(arith.ConstantOp(0, index))
            builder.insert(AffineStoreOp(add.result(), buffer.result(),
                                         [index_op.result()]))
        builder.insert(func.ReturnOp())
        canonicalize(f)
        names = sorted(op.name for op in f.walk())
        assert names == SWEEP_ORACLE["nested_use_dce_ops"]
        assert "arith.addf" not in names

    def test_explicit_pipeline_reproduces_default_kernel_flow(self):
        default = compile_kernel("gemm", 8)
        explicit = compile_kernel("gemm", 8, pipeline=FRONTEND_PIPELINE)
        stable = lambda m: Printer(stable_ids=True).print(m)
        assert stable(default) == stable(explicit)

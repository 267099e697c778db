"""Tests for the pass manager, rewrite driver and dialect registry."""

import pytest

from repro.dialects import arith, func
from repro.ir import (
    Builder,
    InsertionPoint,
    LambdaPass,
    ModuleOp,
    Pass,
    PassManager,
    PatternRewriter,
    RewritePattern,
    f32,
    registry,
)
from repro.ir.pass_manager import FunctionPass, ModulePass
from repro.ir.rewrite import apply_patterns_greedily


def build_simple_module():
    module = ModuleOp("m")
    f = func.build_function(module, "f", [f32])
    builder = Builder(InsertionPoint.at_end(f.body))
    a = builder.insert(arith.ConstantOp(1.0, f32))
    b = builder.insert(arith.ConstantOp(2.0, f32))
    builder.insert(arith.AddFOp(a.result(), b.result()))
    builder.insert(func.ReturnOp())
    return module, f


class TestPassManager:
    def test_function_pass_visits_functions(self):
        module, _ = build_simple_module()
        visited = []
        pm = PassManager([LambdaPass(lambda op: visited.append(op.get_attr("sym_name")),
                                     name="collect")])
        pm.run(module)
        assert visited == ["f"]

    def test_module_pass_runs_once(self):
        module, _ = build_simple_module()
        counter = []

        class CountModules(ModulePass):
            def run(self, op):
                counter.append(op.name)

        PassManager([CountModules()]).run(module)
        assert counter == ["builtin.module"]

    def test_timings_collected(self):
        from repro import obs
        from repro.obs.report import format_timing_report, pass_timings_of

        module, _ = build_simple_module()
        pm = PassManager([LambdaPass(lambda op: None, name="noop")])
        with obs.session() as session:
            pm.run(module)
        timings = pass_timings_of(session.metrics.counters,
                                  session.tracer.tracks())
        assert timings["noop"] >= 0.0
        assert session.metrics.counter("pass.seconds.noop") >= 0.0
        assert "noop" in format_timing_report(timings)

    def test_verify_each(self):
        module, _ = build_simple_module()
        PassManager([LambdaPass(lambda op: None)], verify_each=True).run(module)

    def test_base_pass_requires_run(self):
        with pytest.raises(NotImplementedError):
            Pass().run(ModuleOp("m"))

    def test_add_chains(self):
        pm = PassManager()
        assert pm.add(LambdaPass(lambda op: None)) is pm


class TestRewriteDriver:
    def test_fold_add_of_constants(self):
        module, f = build_simple_module()

        class FoldAdd(RewritePattern):
            op_name = "arith.addf"

            def match_and_rewrite(self, op, rewriter: PatternRewriter) -> bool:
                lhs = arith.constant_value(op.operand(0))
                rhs = arith.constant_value(op.operand(1))
                if lhs is None or rhs is None:
                    return False
                folded = rewriter.insert(arith.ConstantOp(lhs + rhs, f32))
                rewriter.replace_op(op, folded.result())
                return True

        changed = apply_patterns_greedily(f, [FoldAdd()])
        assert changed
        assert not [op for op in f.walk() if op.name == "arith.addf"]

    def test_pattern_filtering_by_name(self):
        module, f = build_simple_module()

        class NeverMatches(RewritePattern):
            op_name = "arith.mulf"

            def match_and_rewrite(self, op, rewriter):
                raise AssertionError("should not be called")

        assert not apply_patterns_greedily(f, [NeverMatches()])

    def test_non_converging_patterns_detected(self):
        module, f = build_simple_module()

        class AlwaysChanges(RewritePattern):
            op_name = "arith.constant"

            def match_and_rewrite(self, op, rewriter):
                rewriter.notify_changed()
                return True

        with pytest.raises(RuntimeError):
            apply_patterns_greedily(f, [AlwaysChanges()], max_iterations=4)

    def test_replace_op_count_mismatch(self):
        module, f = build_simple_module()
        add = [op for op in f.walk() if op.name == "arith.addf"][0]
        rewriter = PatternRewriter()
        with pytest.raises(ValueError):
            rewriter.replace_op(add, [])


class TestPatternStats:
    class _FoldAdd(RewritePattern):
        op_name = "arith.addf"

        def match_and_rewrite(self, op, rewriter: PatternRewriter) -> bool:
            lhs = arith.constant_value(op.operand(0))
            rhs = arith.constant_value(op.operand(1))
            if lhs is None or rhs is None:
                return False
            folded = rewriter.insert(arith.ConstantOp(lhs + rhs, f32))
            rewriter.replace_op(op, folded.result())
            return True

    class _NeverMatches(RewritePattern):
        op_name = "arith.constant"

        def match_and_rewrite(self, op, rewriter) -> bool:
            return False

    def test_driver_counts_hits_and_misses(self):
        from repro.ir import GreedyRewriteDriver

        module, f = build_simple_module()
        driver = GreedyRewriteDriver([self._FoldAdd(), self._NeverMatches()])
        assert driver.rewrite(f)
        assert driver.pattern_stats["_FoldAdd"][0] == 1  # one fold applied
        assert driver.pattern_stats["_NeverMatches"][0] == 0
        assert driver.pattern_stats["_NeverMatches"][1] >= 3  # the constants

    def test_session_aggregates_and_reports(self):
        from repro import obs
        from repro.obs.report import format_pattern_stats, pattern_stats_of

        module, f = build_simple_module()
        with obs.session() as session:
            apply_patterns_greedily(f, [self._FoldAdd()])
        stats, buckets = pattern_stats_of(session.metrics.counters)
        assert stats["_FoldAdd"][0] == 1
        assert sum(hits for hits, _ in stats.values()) == 1
        report = format_pattern_stats(stats, buckets)
        assert "Rewrite pattern statistics" in report
        assert "_FoldAdd" in report

    def test_sweep_strategy_counts_too(self):
        """The hits, and the IR, of the deleted sweep strategy."""
        from repro import obs
        from repro.ir.printer import Printer
        from repro.obs.report import pattern_stats_of
        from test_rewrite_engine import SWEEP_ORACLE, sha256

        module, f = build_simple_module()
        with obs.session() as session:
            apply_patterns_greedily(f, [self._FoldAdd()])
        stats, _ = pattern_stats_of(session.metrics.counters)
        assert {name: hits for name, (hits, _) in stats.items()} \
            == SWEEP_ORACLE["fold_add"]["hits"]
        assert sha256(Printer(stable_ids=True).print(f)) \
            == SWEEP_ORACLE["fold_add"]["ir_sha256"]


class TestDialectRegistry:
    def test_core_dialects_registered(self):
        for namespace in ("arith", "func", "memref", "affine", "scf", "graph"):
            assert registry.get(namespace) is not None

    def test_registered_op_lookup(self):
        assert registry.is_registered_op("arith.addf")
        assert registry.is_registered_op("affine.for")
        assert not registry.is_registered_op("arith.not_an_op")
        assert not registry.is_registered_op("plainname")

    def test_op_class_attribute_set_by_decorator(self):
        assert arith.AddFOp.OP_NAME == "arith.addf"

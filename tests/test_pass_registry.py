"""Tests for the pass registry, the textual pipeline syntax and the
redesigned PassManager instrumentation."""

import copy
import pickle

import pytest

from repro import obs
from repro.dialects import arith, func
from repro.ir import (
    Builder,
    InsertionPoint,
    ModuleOp,
    PassError,
    PassManager,
    build_pipeline,
    f32,
    parse_pipeline,
    pipeline_signature,
    registered_passes,
)
from repro.ir.pass_registry import build_pipeline_cached, pass_aliases
from repro.obs.report import format_timing_report, pass_timings_of
from repro.transforms import AffineLoopUnrollPass


def build_simple_module():
    module = ModuleOp("m")
    f = func.build_function(module, "f", [f32])
    builder = Builder(InsertionPoint.at_end(f.body))
    a = builder.insert(arith.ConstantOp(1.0, f32))
    b = builder.insert(arith.ConstantOp(2.0, f32))
    builder.insert(arith.AddFOp(a.result(), b.result()))
    builder.insert(func.ReturnOp())
    return module, f


class TestRegistry:
    def test_transform_library_is_registered(self):
        names = set(registered_passes())
        expected = {
            "canonicalize", "cse", "simplify-affine-if", "affine-store-forward",
            "simplify-memref-access", "affine-loop-perfectization",
            "remove-variable-bound", "affine-loop-order-opt", "affine-loop-tile",
            "affine-loop-unroll", "loop-pipelining", "func-pipelining",
            "array-partition", "legalize-dataflow", "split-function",
            "lower-graph-to-loops", "raise-scf-to-affine", "design-point-prefix",
            "design-point-suffix", "dnn-loop-opt",
        }
        assert expected <= names

    def test_aliases_resolve_to_canonical_names(self):
        aliases = pass_aliases()
        assert aliases["loop-tiling"] == "affine-loop-tile"
        assert aliases["pipeline"] == "loop-pipelining"
        # An alias builds the canonical pass, and prints canonically.
        assert build_pipeline("loop-tiling{sizes=2,2}").to_spec() \
            == "affine-loop-tile{sizes=2,2}"

    def test_unknown_pass_is_actionable(self):
        with pytest.raises(PassError, match="unknown pass 'no-such-pass'"):
            build_pipeline("no-such-pass")

    def test_every_registered_pass_default_constructs_and_pickles(self):
        for name, cls in registered_passes().items():
            instance = cls()
            assert instance.name == name
            restored = pickle.loads(pickle.dumps(instance))
            assert restored.display_name == instance.display_name


class TestPipelineParsing:
    ROUND_TRIPS = [
        "canonicalize",
        "canonicalize,cse",
        "affine-loop-tile{sizes=4,4},loop-pipelining{ii=2}",
        "func.func(raise-scf-to-affine,canonicalize)",
        "builtin.module(func.func(canonicalize,cse),lower-graph-to-loops)",
        "design-point-prefix{perfectize=true,rvb=true},"
        "design-point-suffix{perm=1,2,0,tiles=2,1,2}",
        "legalize-dataflow{insert-copy=true}",
    ]

    @pytest.mark.parametrize("spec", ROUND_TRIPS)
    def test_parse_print_parse_round_trip(self, spec):
        printed = build_pipeline(spec).to_spec()
        reprinted = build_pipeline(printed).to_spec()
        assert printed == reprinted
        # The raw parse also round-trips at the syntax level.
        assert str(parse_pipeline(str(parse_pipeline(spec)))) == str(parse_pipeline(spec))

    def test_default_options_are_normalized_away(self):
        assert build_pipeline("loop-pipelining{ii=1}").to_spec() == "loop-pipelining"
        assert pipeline_signature("canonicalize, cse") == "canonicalize,cse"

    def test_list_option_commas_bind_to_the_option(self):
        pm = build_pipeline("affine-loop-tile{sizes=8,4,2,default-size=4}")
        tile_pass = pm.passes[0]
        assert tuple(tile_pass.tile_sizes) == (8, 4, 2)
        assert tile_pass.default_size == 4

    @pytest.mark.parametrize("bad, message", [
        ("canonicalize{bogus=1}", "has no option 'bogus'"),
        ("affine-loop-unroll{factor=x}", "expects an integer"),
        ("legalize-dataflow{insert-copy=maybe}", "expects true/false"),
        ("affine-loop-tile{sizes=4,x}", "list of integers"),
        ("canonicalize{", "unbalanced"),
        ("canonicalize{}", "empty option braces"),
        ("canonicalize(cse)", "cannot anchor"),
        ("func.func(canonicalize", "unbalanced"),
        ("func.func()", "expected a pass or anchor name"),
        ("", "expected a pass or anchor name"),
        ("canonicalize,,cse", "expected a pass or anchor name"),
    ])
    def test_malformed_specs_raise_pass_errors(self, bad, message):
        with pytest.raises(PassError, match=message):
            build_pipeline(bad)

    @pytest.mark.parametrize("bad, message", [
        ("func.func(lower-graph-to-loops)", "cannot run inside 'func.func"),
        ("func.func(builtin.module(canonicalize))", "outermost operation"),
        ("func.func(func.func(canonicalize))",
         "only 'builtin.module' can contain nested anchors"),
    ])
    def test_nested_anchor_errors(self, bad, message):
        with pytest.raises(PassError, match=message):
            build_pipeline(bad)

    def test_module_anchor_reaches_nested_targets(self):
        module, f = build_simple_module()
        build_pipeline("builtin.module(canonicalize)").run(module)
        assert not [op for op in f.walk() if op.name == "arith.addf"]


class TestPipelineSpecFuzz:
    """Property-style round-trip fuzzing of the textual pipeline syntax.

    Specs are generated from the real registry (names, declared options,
    anchors), so the corpus tracks the transform library as it grows.  Every
    generated spec must round-trip to a fixed point through parse/print, and
    targeted corruptions of a valid spec must fail with an actionable
    :class:`PassError` — never a raw crash or a silent acceptance.
    """

    ROUNDS = 60

    @staticmethod
    def _random_value(option, rng):
        if option.type == "int":
            return str(rng.choice([1, 2, 3, 4, 8, 16]))
        if option.type == "bool":
            return rng.choice(["true", "false", "1", "0"])
        if option.type == "int-list":
            return ",".join(str(rng.choice([1, 2, 4, 8]))
                            for _ in range(rng.randint(1, 3)))
        return rng.choice(["f", "stage0", "forward_node"])  # str

    @classmethod
    def _random_pass(cls, rng, registry):
        name, pass_cls = rng.choice(registry)
        rendered = []
        for option in pass_cls.OPTIONS:
            if rng.random() < 0.5:
                rendered.append(f"{option.name}={cls._random_value(option, rng)}")
        return f"{name}{{{','.join(rendered)}}}" if rendered else name

    @classmethod
    def _random_spec(cls, rng):
        function_passes = [(name, cls_) for name, cls_ in
                           sorted(registered_passes().items())
                           if cls_.target_op == "func.func"]
        any_passes = sorted(registered_passes().items())
        elements = []
        for _ in range(rng.randint(1, 4)):
            shape = rng.random()
            if shape < 0.2:
                inner = ",".join(cls._random_pass(rng, function_passes)
                                 for _ in range(rng.randint(1, 3)))
                elements.append(f"func.func({inner})")
            elif shape < 0.35:
                inner = ",".join(cls._random_pass(rng, any_passes)
                                 for _ in range(rng.randint(1, 2)))
                elements.append(f"builtin.module({inner})")
            else:
                elements.append(cls._random_pass(rng, any_passes))
        return ",".join(elements)

    def test_generated_specs_reach_a_print_fixed_point(self):
        import random

        rng = random.Random(2022)
        for _ in range(self.ROUNDS):
            spec = self._random_spec(rng)
            printed = build_pipeline(spec).to_spec()
            # The canonical form is a fixed point of parse/print.
            assert build_pipeline(printed).to_spec() == printed, spec
            # The raw syntax round-trips below the registry too.
            reparsed = str(parse_pipeline(str(parse_pipeline(spec))))
            assert reparsed == str(parse_pipeline(spec)), spec

    def test_corrupted_specs_raise_actionable_errors(self):
        import random

        rng = random.Random(7)
        corruptions = [
            lambda s: s.replace(s.split(",")[0].split("{")[0],
                                "no-such-pass-xyz", 1),
            lambda s: s + "{",
            lambda s: s + "{}",
            lambda s: "," + s,
            lambda s: s + ",",
            lambda s: s.replace(",", ",,", 1) if "," in s else s + ",,cse",
            lambda s: f"cse({s})",
            lambda s: f"func.func(builtin.module({s}))",
        ]
        for _ in range(self.ROUNDS):
            spec = self._random_spec(rng)
            corrupt = rng.choice(corruptions)(spec)
            with pytest.raises(PassError) as excinfo:
                build_pipeline(corrupt)
            # Actionable: the error names the offense, never an empty shrug.
            message = str(excinfo.value)
            assert len(message) > 20, corrupt

    def test_option_value_corruptions_name_the_option(self):
        for bad, fragment in [
            ("affine-loop-unroll{factor=banana}", "expects an integer"),
            ("affine-loop-tile{sizes=4,no}", "list of integers"),
            ("legalize-dataflow{insert-copy=perhaps}", "expects true/false"),
            ("design-point-suffix{unknown-knob=1}", "has no option"),
        ]:
            with pytest.raises(PassError, match=fragment):
                build_pipeline(bad)


class TestPassManagerInstrumentation:
    def test_timings_keyed_by_name_and_options(self):
        module, _ = build_simple_module()
        pm = PassManager([AffineLoopUnrollPass(unroll_factor=2),
                          AffineLoopUnrollPass(unroll_factor=8)])
        with obs.session() as session:
            pm.run(module)
        timings = pass_timings_of(session.metrics.counters,
                                  session.tracer.tracks())
        assert set(timings) == {"affine-loop-unroll{factor=2}",
                                "affine-loop-unroll{factor=8}"}

    def test_one_session_spans_managers(self):
        module, _ = build_simple_module()
        with obs.session() as session:
            build_pipeline("canonicalize").run(module)
            build_pipeline("cse").run(module)
        timings = pass_timings_of(session.metrics.counters,
                                  session.tracer.tracks())
        assert set(timings) == {"canonicalize", "cse"}
        assert "Pass execution timing report" in format_timing_report(timings)

    def test_run_leaves_a_cached_manager_as_it_found_it(self):
        module, _ = build_simple_module()
        manager = build_pipeline_cached("func.func(canonicalize),cse")
        before = {name: copy.copy(value)
                  for name, value in vars(manager).items()}
        with obs.session():
            manager.run(module)
        manager.run(module)
        assert vars(manager) == before

    def test_no_session_no_clock_no_option_rendering(self, monkeypatch):
        import time

        from repro.ir import pass_manager

        calls = []

        class CountingClock:
            @staticmethod
            def perf_counter():
                calls.append("perf_counter")
                return time.perf_counter()

        class Unroll(AffineLoopUnrollPass):
            def option_string(self):
                calls.append("display_name")
                return super().option_string()

        monkeypatch.setattr(pass_manager, "time", CountingClock)
        module, _ = build_simple_module()
        manager = PassManager([Unroll(unroll_factor=2)])
        manager.nest("func.func").entries.append(Unroll(unroll_factor=4))
        manager.run(module)
        assert calls == []
        # The same run under a session reads the clock and renders the names.
        with obs.session():
            manager.run(module)
        assert calls.count("perf_counter") == 4
        assert calls.count("display_name") == 2

    def test_verify_failure_dumps_ir(self, tmp_path):
        from repro.ir import LambdaPass

        module, f = build_simple_module()

        def corrupt(func_op):
            # Drop use-list entries while keeping the operands: structurally
            # invalid IR that verification must flag.
            add = next(op for op in func_op.walk() if op.name == "arith.addf")
            add.drop_operand_uses()

        pm = PassManager([LambdaPass(corrupt, name="corrupt")], verify_each=True,
                         failure_dump_dir=str(tmp_path))
        with pytest.raises(PassError, match="after pass 'corrupt'") as excinfo:
            pm.run(module)
        dumps = list(tmp_path.glob("repro-after-corrupt-*.mlir"))
        assert len(dumps) == 1
        assert str(dumps[0]) in str(excinfo.value)


class TestPicklablePipelines:
    """Pipeline specs and built passes must survive pickling: the parallel
    DSE runtime ships them to worker processes instead of re-importing
    transform functions."""

    def test_pipeline_spec_pickle_round_trip_runs(self):
        from repro.ir.printer import Printer
        from repro.pipeline import compile_kernel

        spec = "canonicalize,design-point-suffix{tiles=2,1,2},cse"
        passes = build_pipeline(spec).passes
        restored = pickle.loads(pickle.dumps(passes))
        assert [p.display_name for p in restored] == [p.display_name for p in passes]

        direct = compile_kernel("gemm", 8)
        shipped = compile_kernel("gemm", 8)
        PassManager(passes).run(direct.functions()[0])
        PassManager(restored).run(shipped.functions()[0])
        stable = lambda m: Printer(stable_ids=True).print(m)
        assert stable(direct) == stable(shipped)

    def test_worker_evaluation_through_pickled_context(self):
        from repro.dse.apply import kernel_pipeline_signature
        from repro.dse.runtime.worker import KernelContext, evaluate_encoded
        from repro.dse.space import KernelDesignSpace
        from repro.estimation import XC7Z020
        from repro.pipeline import compile_kernel

        module = compile_kernel("gemm", 8)
        space = KernelDesignSpace.from_function(module.functions()[0])
        context = KernelContext(module=module, func_name=None, platform=XC7Z020,
                                space=space, pipeline=kernel_pipeline_signature())
        restored = pickle.loads(pickle.dumps(context))
        encoded = (0,) * space.num_dimensions
        assert evaluate_encoded(restored, encoded) == evaluate_encoded(context, encoded)

    def test_worker_rejects_mismatched_pipeline(self):
        from repro.dse.runtime.worker import KernelContext, evaluate_encoded
        from repro.dse.space import KernelDesignSpace
        from repro.estimation import XC7Z020
        from repro.pipeline import compile_kernel

        module = compile_kernel("gemm", 8)
        space = KernelDesignSpace.from_function(module.functions()[0])
        context = KernelContext(module=module, func_name=None, platform=XC7Z020,
                                space=space, pipeline="some-other-pipeline")
        encoded = (0,) * space.num_dimensions
        with pytest.raises(PassError, match="pipeline mismatch"):
            evaluate_encoded(context, encoded)


class TestCachedBuilder:
    def test_cached_builder_returns_shared_manager(self):
        a = build_pipeline_cached("canonicalize,cse")
        b = build_pipeline_cached("canonicalize,cse")
        assert a is b
        assert build_pipeline("canonicalize,cse") is not a

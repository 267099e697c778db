"""A serial sweep hands over the finalized design it already built.

An in-process sweep keeps, per kernel, the best design its evaluations
built; ``materialize`` of the best point hands it over once instead of
running the transform pipeline again.  The handed-over design must be the
one a from-scratch ``apply_design_point`` builds, byte for byte, whether it
was evaluated for the best point itself, for an alias of it (same program,
other knob values) or for an II-sibling (same program, other target II).
Pool sweeps, model sweeps, ``dse`` (``keep_design=False``) and
shared-trajectory copies keep nothing.
"""

from __future__ import annotations

import pytest

from repro.dse.apply import apply_design_point
from repro.dse.runtime import EstimateCache, KernelTask, SweepConfig
from repro.dse.runtime import scheduler
from repro.dse.runtime.scheduler import explore_kernels
from repro.dse.space import KernelDesignSpace
from repro.emit.hlscpp_emitter import emit_hlscpp
from repro.estimation import VU9P_SLR, XC7Z020
from repro.ir.operation import Operation
from repro.ir.printer import print_op
from repro.kernels import KERNEL_NAMES, kernel_source
from repro.pipeline import (compile_c, explore_dnn, explore_kernel,
                            explore_module_kernels)
from repro.tools.driver import main

from conftest import GEMM_SOURCE, compile_source

#: The kernel sweep of the end-to-end benchmark's ``kernel_cold``.
BUDGET = dict(num_samples=8, max_iterations=12, batch_size=8)


def table3_module():
    return compile_c("\n".join(kernel_source(name, 8) for name in KERNEL_NAMES),
                     "table3")


def printed(design) -> tuple:
    """What two equal designs share: the module as printed and emitted,
    and every estimate."""
    return (print_op(design.module, stable_ids=True),
            emit_hlscpp(design.module), design.qor, design.achieved_ii,
            design.partition_factors, design.point)


def rebuilt(result, module):
    best = result.best_record
    return apply_design_point(module, best.point, XC7Z020,
                              func_name=result.func_name)


class TestHandedOverEqualsRebuilt:
    @pytest.fixture(scope="class")
    def sweeps(self):
        module = table3_module()
        return module, {
            seed: explore_module_kernels(module, XC7Z020, jobs=1, seed=seed,
                                         **BUDGET)
            for seed in (2022, 7, 11)}

    def test_every_kept_best_equals_a_from_scratch_application(self, sweeps):
        module, by_seed = sweeps
        kinds = set()
        served = 0
        for seed, results in by_seed.items():
            for name, result in results.items():
                kept = result.kept_design
                if kept is None:
                    continue
                served += 1
                best = result.best_record.point
                if kept.point.target_ii != best.target_ii:
                    kinds.add("sibling")
                elif kept.point != best:
                    kinds.add("alias")
                design = result.best_design()
                assert printed(design) == printed(rebuilt(result, module)), \
                    (seed, name)
        assert {"alias", "sibling"} <= kinds
        # A best is rebuilt when it is a classmate at another target II
        # that outranks every evaluated point (the keeper ranks a design by
        # its own point): 2 of these 18.
        assert served >= 15


def gemm_sweep(**overrides):
    module = compile_source(GEMM_SOURCE, "gemm")
    results = explore_module_kernels(module, XC7Z020, seed=2022,
                                     **{"jobs": 1, **BUDGET, **overrides})
    return module, results["gemm"]


class TestHandOverOnce:
    def test_a_second_materialize_rebuilds_an_equal_distinct_design(self):
        module, result = gemm_sweep()
        assert result.kept_design is not None
        first = result.materialize(result.best_record.encoded)
        assert result.kept_design is None
        second = result.materialize(result.best_record.encoded)
        assert second.module is not first.module
        assert printed(second) == printed(first)

    def test_another_encoding_leaves_the_kept_design(self):
        _, result = gemm_sweep()
        other = next(encoded for encoded in result.records
                     if encoded != result.best_record.encoded)
        result.materialize(other)
        assert result.kept_design is not None

    def test_a_cache_served_rerun_rebuilds_the_same_bytes(self):
        cache = EstimateCache()
        _, cold = gemm_sweep(cache=cache)
        assert cold.kept_design is not None
        _, warm = gemm_sweep(cache=cache)
        assert warm.evaluated_this_run == 0 and warm.kept_design is None
        assert warm.best_record == cold.best_record
        assert printed(warm.best_design()) == printed(cold.best_design())

    def test_a_cache_served_best_gets_a_design_of_its_program(self):
        # Only the best's record is cached: the re-run evaluates a
        # classmate of it (same program and target II), and that design
        # answers the cache-served best.
        module = compile_source(GEMM_SOURCE, "gemm")
        cold = explore_module_kernels(module, XC7Z020, seed=2015, jobs=1,
                                      **BUDGET)["gemm"]
        cache = EstimateCache()
        cache.put(cold.fingerprint, cold.best_record)
        warm = explore_module_kernels(compile_source(GEMM_SOURCE, "gemm"),
                                      XC7Z020, seed=2015, jobs=1, cache=cache,
                                      **BUDGET)["gemm"]
        assert warm.evaluated_this_run == warm.num_evaluations - 1
        assert warm.best_record == cold.best_record
        kept = warm.kept_design
        assert kept is not None and kept.point != warm.best_record.point
        assert printed(warm.best_design()) == printed(rebuilt(warm, module))

    def test_a_replaced_design_is_dismantled_at_once(self, monkeypatch):
        dismantled = []
        dismantle = Operation.dismantle

        def recording(op):
            dismantled.append(op)
            dismantle(op)

        monkeypatch.setattr(Operation, "dismantle", recording)
        _, result = gemm_sweep()
        assert dismantled and result.kept_design is not None
        assert all(op is not result.kept_design.module for op in dismantled)
        assert all(op.parent is None and not op.regions for op in dismantled)

    def test_a_pool_sweep_keeps_nothing(self):
        _, result = gemm_sweep(jobs=2)
        assert result.kept_design is None


class TestWhatKeepsNothing:
    def test_copies_of_a_shared_trajectory_hold_no_design(self):
        tasks = []
        for index in range(2):
            module = compile_source(GEMM_SOURCE, "gemm")
            func_op = module.functions()[0]
            func_op.set_attr("sym_name", f"gemm_{index}")
            tasks.append(KernelTask(
                key=f"gemm_{index}", module=module, func_name=f"gemm_{index}",
                space=KernelDesignSpace.from_function(func_op)))
        results = explore_kernels(tasks, XC7Z020, SweepConfig(
            jobs=1, num_samples=3, max_iterations=4, seed=5, batch_size=2))
        assert results["gemm_1"].shared_with == "gemm_0"
        assert results["gemm_1"].kept_design is None
        design = results["gemm_1"].best_design()
        assert design.func_op.get_attr("sym_name") == "gemm_1"

    def test_a_sweep_asked_to_keep_nothing_rebuilds_the_same_bytes(self):
        module, result = gemm_sweep(keep_design=False)
        assert result.kept_design is None
        _, kept = gemm_sweep()
        assert result.best_record == kept.best_record
        assert printed(result.best_design()) == printed(kept.best_design())
        assert printed(result.best_design()) == printed(rebuilt(result, module))
        single = explore_kernel(compile_source(GEMM_SOURCE, "gemm"), XC7Z020,
                                seed=2022, jobs=1, keep_design=False, **BUDGET)
        assert single.kept_design is None
        assert single.best_record == kept.best_record

    @pytest.mark.parametrize("flags", [["--kernel", "gemm", "--size", "4"],
                                       ["--all-functions"]])
    def test_the_dse_command_keeps_nothing(self, monkeypatch, tmp_path, flags):
        if "--all-functions" in flags:
            source = tmp_path / "pair.c"
            source.write_text(TWO_FUNCTIONS)
            flags = [str(source)] + flags
        sweeps = []

        def recording(tasks, *args, **kwargs):
            results = explore_kernels(tasks, *args, **kwargs)
            sweeps.append(([task.keep_design for task in tasks],
                           [result.kept_design for result in results.values()]))
            return results

        monkeypatch.setattr(scheduler, "explore_kernels", recording)
        assert main(["dse", *flags, "--samples", "2", "--iterations", "1"]) == 0
        assert len(sweeps) == 1
        keep, kept = sweeps[0]
        assert keep and not any(keep)
        assert kept == [None] * len(keep)

    def test_a_model_sweep_keeps_nothing(self):
        result = explore_dnn("vgg16", VU9P_SLR, graph_level=7, max_nodes=6,
                             jobs=1, seed=7, batch_size=2, num_samples=3,
                             max_iterations=4)
        assert any(node.shared_with is not None
                   for node in result.node_results.values())
        assert all(node.kept_design is None
                   for node in result.node_results.values())


TWO_FUNCTIONS = """
void scale(float A[8][8], float s) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      A[i][j] = A[i][j] * s;
}

void add(float A[8][8], float B[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      A[i][j] = A[i][j] + B[i][j];
}
"""


def test_a_handed_over_design_keeps_the_modules_other_functions():
    module = compile_c(TWO_FUNCTIONS, "two")
    results = explore_module_kernels(module, XC7Z020, jobs=1, seed=3,
                                     func_names=["add"], num_samples=4,
                                     max_iterations=4, batch_size=4)
    result = results["add"]
    assert result.kept_design is not None
    design = result.best_design()
    names = [op.get_attr("sym_name") for op in design.module.functions()]
    assert names == ["scale", "add"]
    assert printed(design) == printed(rebuilt(result, module))

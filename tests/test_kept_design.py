"""A sweep hands over the finalized design it already built.

A sweep keeps, per kernel, the best design its evaluations built: inline,
as the evaluation builds it; on a pool, as the worker that built it ships
it back, pickled through the flat IR encoding.  ``materialize`` of the best
point hands it over once instead of running the transform pipeline again.
The handed-over design must be the one a from-scratch
``apply_design_point`` builds, byte for byte, whether it was evaluated for
the best point itself, for an alias of it (same program, other knob
values) or for an II-sibling (same program, other target II), and a pool
must hand over the bests a serial sweep hands over.  Model sweeps, ``dse``
(``keep_design=False``) and shared-trajectory copies keep nothing, and
their workers encode nothing.
"""

from __future__ import annotations

import pickle
import sys
from unittest import mock

import pytest

from repro import obs
from repro.dse import apply as apply_module
from repro.dse.apply import apply_design_point
from repro.dse.runtime import EstimateCache, KernelTask, SweepConfig
from repro.dse.runtime import parallel, scheduler
from repro.dse.runtime.faults import FaultPlan, SupervisionPolicy
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

#: DSE seeds whose bests include aliases, II-siblings and rebuilt bests.
SEEDS = (2022, 7, 11)


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


def use_orders(module) -> list:
    return [[(use.owner.name, use.index) for use in value.uses]
            for op in module.walk() for value in op.results]


class Sweep:
    """The six Table III kernels swept at one seed, and what each
    kernel's ``best_design()`` handed over: the kept design's point (None
    when the best was rebuilt) and the design as :func:`printed`.
    ``rebuilds`` counts the transform runs those calls made."""

    def __init__(self, seed: int, **config):
        self.module = table3_module()
        self.results = explore_module_kernels(
            self.module, XC7Z020, seed=seed, **{**BUDGET, **config})
        self.records = {name: result.records
                        for name, result in self.results.items()}
        self.kept = {name: None if result.kept_design is None
                     else result.kept_design.point
                     for name, result in self.results.items()}
        with mock.patch.object(parallel, "apply_design_point",
                               wraps=apply_design_point) as runs:
            self.bests = {name: printed(result.best_design())
                          for name, result in self.results.items()}
        self.rebuilds = runs.call_count


@pytest.fixture(scope="module")
def serial():
    return {seed: Sweep(seed, jobs=1) for seed in SEEDS}


class TestHandedOverEqualsRebuilt:
    def test_every_kept_best_equals_a_from_scratch_application(self, serial):
        kinds = set()
        served = 0
        for seed, sweep in serial.items():
            for name, kept in sweep.kept.items():
                if kept is None:
                    continue
                served += 1
                result = sweep.results[name]
                best = result.best_record.point
                if kept.target_ii != best.target_ii:
                    kinds.add("sibling")
                elif kept != best:
                    kinds.add("alias")
                assert sweep.bests[name] == printed(
                    rebuilt(result, sweep.module)), (seed, name)
        assert {"alias", "sibling"} <= kinds
        # A best is rebuilt when it is a classmate at another target II
        # that outranks every evaluated point (the keeper ranks a design by
        # its own point): 2 of these 18.
        assert served >= 15

    def test_a_handed_over_best_runs_no_pipeline(self, serial):
        for sweep in serial.values():
            assert sweep.rebuilds == list(sweep.kept.values()).count(None)


class TestAPoolHandsOverWhatItsWorkersBuilt:
    @pytest.fixture(scope="class")
    def pool(self):
        with obs.session() as session:
            sweeps = {seed: Sweep(seed, jobs=2) for seed in SEEDS}
        return sweeps, session.metrics.counters

    def test_the_pool_hands_over_the_serial_bests(self, serial, pool):
        sweeps, _ = pool
        for seed in SEEDS:
            assert sweeps[seed].records == serial[seed].records, seed
            assert sweeps[seed].kept == serial[seed].kept, seed
            assert sweeps[seed].bests == serial[seed].bests, seed

    def test_a_handed_over_best_runs_no_pipeline(self, pool):
        sweeps, _ = pool
        for sweep in sweeps.values():
            assert any(point is not None for point in sweep.kept.values())
            assert sweep.rebuilds == list(sweep.kept.values()).count(None)

    def test_shipping_is_counted(self, pool):
        _, counters = pool
        kept = sum(point is not None for sweep in pool[0].values()
                   for point in sweep.kept.values())
        assert counters["dse.pool.designs_shipped"] >= kept
        assert counters["dse.pool.shipped_bytes"] \
            > counters["dse.pool.designs_shipped"]

    def test_a_design_that_does_not_encode_is_rebuilt(self, serial,
                                                       monkeypatch):
        def failing(*ops):
            raise RecursionError("forced encode failure")

        monkeypatch.setattr(apply_module, "encode", failing)
        with obs.session() as session:
            sweep = Sweep(2022, jobs=2)
        assert "dse.pool.designs_shipped" not in session.metrics.counters
        assert sweep.records == serial[2022].records
        assert set(sweep.kept.values()) == {None}
        assert sweep.rebuilds == len(sweep.bests)
        assert sweep.bests == serial[2022].bests

    def test_a_crashing_pool_hands_over_the_same_bests(self, serial,
                                                       tmp_path):
        plan = FaultPlan(mode="crash", select=3, times=1,
                         state_dir=str(tmp_path / "ledger"))
        with obs.session() as session:
            sweep = Sweep(2022, jobs=2, faults=plan,
                          supervision=SupervisionPolicy(max_retries=2))
        counters = session.metrics.counters
        assert counters["dse.pool.respawns"] == counters["dse.faults.crashes"] > 0
        assert sweep.records == serial[2022].records
        assert any(point is not None for point in sweep.kept.values())
        assert sweep.bests == serial[2022].bests


def test_the_found_design_pickles_at_the_default_recursion_limit(serial):
    # gesummv's best at seed 11 (tiles [8, 8]) raised RecursionError under
    # pickle's own traversal of the linked IR.
    sweep = serial[11]
    design = rebuilt(sweep.results["gesummv"], sweep.module)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        revived = pickle.loads(pickle.dumps(design))
    finally:
        sys.setrecursionlimit(limit)
    assert printed(revived) == printed(design)
    assert use_orders(revived.module) == use_orders(design.module)
    assert any(op is revived.func_op for op in revived.module.walk())
    # Its pipelined loop is one the cleanup pipeline removed afterwards: it
    # is not in the module, so it revives as None.
    assert design.pipelined is not None
    assert not any(op is design.pipelined for op in design.module.walk())
    assert revived.pipelined is None


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

    def test_sweeps_that_keep_nothing_encode_nothing(self, monkeypatch,
                                                     tmp_path):
        # The workers fork after the patch, so they log what they encode.
        log = tmp_path / "encoded"
        encode = apply_module.encode

        def logging(*ops):
            with open(log, "a") as handle:
                handle.write(".")
            return encode(*ops)

        monkeypatch.setattr(apply_module, "encode", logging)
        with obs.session() as session:
            _, result = gemm_sweep(jobs=2, keep_design=False)
            model = explore_dnn("vgg16", VU9P_SLR, graph_level=7,
                                max_nodes=4, jobs=2, seed=7, batch_size=2,
                                num_samples=3, max_iterations=4)
        assert result.kept_design is None
        assert all(node.kept_design is None
                   for node in model.node_results.values())
        assert not log.exists()
        assert "dse.pool.designs_shipped" not in session.metrics.counters
        _, kept = gemm_sweep(jobs=2)
        assert kept.kept_design is not None and log.exists()

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

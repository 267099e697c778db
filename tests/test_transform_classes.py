"""Transform classes: one transformed IR answers every target II of a design
point, and every encoding that decodes to it.

The target II is the one knob of a design point no transform reads, so the
evaluation path transforms a *class* once and closes the estimator over all
its target IIs.  The tests here are what licenses that: a record derived as
an II-sibling must equal, field by field, the record a from-scratch
evaluation of that point produces — over whole design spaces, not samples.

A new estimator-only knob is enumerated next to
``KernelDesignSpace.ii_siblings`` only together with an extension of
``TestSiblingsEqualDirectEvaluation``: ``direct_record`` must apply the
sibling point itself, knob included.
"""

import dataclasses
import json
import os
import pathlib
import pickle
import random

import pytest

from repro import obs
from repro.dialects.hlscpp import (
    FuncDirective,
    get_loop_directive,
    is_pipelined,
    set_func_directive,
)
from repro.dse.apply import apply_design_point, optimize_kernel_module
from repro.dse.incremental import PrefixSnapshotCache
from repro.dse.runtime import (
    EstimateCache,
    FaultPlan,
    KernelTask,
    SupervisionPolicy,
    SweepConfig,
)
from repro.dse.runtime import scheduler, worker
from repro.dse.runtime.records import EvaluationRecord
from repro.dse.runtime.worker import KernelContext, evaluate_encoded
from repro.dse.space import KernelDesignSpace
from repro.estimation import QoREstimator, VU9P_SLR, XC7Z020
from repro.estimation.platform import PLATFORMS
from repro.kernels import KERNEL_NAMES, kernel_source
from repro.obs.report import render_run_summary
from repro.pipeline import compile_c, explore_kernel
from repro.transforms import pipeline_loop

import cleanups
from test_kernel_identity import (
    single_function_module,
    staged_nodes,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "gemm8_class_sweep.json")
#: The checkpoint of the run capped at 9 points (``GOLDEN["checkpoint"]``) in
#: the version-1 layout, as the commit before checkpoints held records only
#: wrote it.
GOLDEN_V1_CHECKPOINT = pathlib.Path(GOLDEN).with_name(
    "gemm8_class_sweep_v1.ckpt.json")


# -- helpers --------------------------------------------------------------------------------


def kernel_context(name: str, size: int, platforms=None) -> KernelContext:
    module = compile_c(kernel_source(name, size), name)
    return function_context(module, XC7Z020, platforms)


def function_context(module, platform, platforms=None) -> KernelContext:
    func_op = module.functions()[0]
    space = KernelDesignSpace.from_function(func_op, platforms=platforms)
    return KernelContext(module=module, func_name=func_op.get_attr("sym_name"),
                         platform=platform, space=space)


def direct_record(context: KernelContext, encoded) -> EvaluationRecord:
    """The from-scratch evaluation of exactly this point: its own transform
    run, with its own target II in the directive, and one estimate."""
    point = context.space.decode(encoded)
    platform, platform_hash = context.platform, ""
    if point.platform:
        platform = context.space.platform_named(point.platform)
        platform_hash = platform.config_hash()
    design = apply_design_point(context.module, point, platform,
                                func_name=context.func_name)
    assert design.siblings == {}
    return EvaluationRecord.from_design(encoded, design,
                                        platform_hash=platform_hash)


def assert_same_record(record: EvaluationRecord, expected: EvaluationRecord):
    # Dataclass equality covers encoded, point, qor (latency, interval,
    # resources), achieved_ii, status, error and platform_hash; the QoR's
    # own achieved II is excluded from it by design, so compare it too.
    assert record == expected
    assert record.qor.achieved_ii == expected.qor.achieved_ii


def class_records(context: KernelContext, representative) -> dict:
    """Every record one evaluation of ``representative`` answers."""
    record = evaluate_encoded(context, representative)
    assert all(sibling.siblings == () for sibling in record.siblings)
    return {record.encoded: record,
            **{sibling.encoded: sibling for sibling in record.siblings}}


def check_classes(context: KernelContext, keep=lambda point: True) -> int:
    """Every point of the space, derived from a classmate, equals its direct
    evaluation.  The representative's II rotates from class to class, so
    siblings are derived from every II to every other.  Returns the number
    of points compared."""
    space = context.space
    position = space.ii_dimension
    classes = [encoded for encoded in space.all_points()
               if encoded[position] == 0 and keep(space.decode(encoded))]
    compared = 0
    for index, encoded in enumerate(classes):
        representative = (encoded[:position] + (index % len(space.ii_options),)
                          + encoded[position + 1:])
        derived = class_records(context, representative)
        assert set(derived) == {representative} | {
            other for other, _ in space.ii_siblings(representative)}
        for other, record in derived.items():
            assert_same_record(record, direct_record(context, other))
        compared += len(derived)
    return compared


def pipelined_loops(func_op) -> list:
    return [op for op in func_op.walk() if is_pipelined(op)]


# -- a record derived as a sibling equals the per-point evaluation ---------------------------


#: Kernels whose whole space costs tier-1 tens of seconds: every point runs
#: under ``-m exhaustive`` (CI), a stratified sample of classes in tier-1.
EXHAUSTIVE_IN_CI = ("gemm", "syr2k", "syrk", "trmm")


def stratum(point) -> tuple:
    """The knobs that pick *which* transforms run; tiles vary within it."""
    return (point.loop_perfectization, point.remove_variable_bound,
            point.perm_map, point.pipeline, point.platform)


def stratified_classes(space: KernelDesignSpace, per_stratum: int = 1,
                       seed: int = 13) -> set:
    """A seeded sample of transform classes, as decoded points:
    ``per_stratum`` tile vectors of every :func:`stratum`."""
    position = space.ii_dimension
    strata: dict = {}
    for encoded in space.all_points():
        if encoded[position] == 0:
            point = space.decode(encoded)
            strata.setdefault(stratum(point), []).append(point)
    rng = random.Random(seed)
    return {point for points in strata.values()
            for point in rng.sample(points, per_stratum)}


class TestSiblingsEqualDirectEvaluation:
    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.exhaustive)
        if name in EXHAUSTIVE_IN_CI else name for name in KERNEL_NAMES])
    def test_every_point_of_a_table3_kernel(self, name, three_cleanups):
        context = kernel_context(name, 4)
        assert set(context.space.pipeline_options) \
            == {"default", *cleanups.RETIRED}
        assert check_classes(context) == context.space.num_points

    @pytest.mark.parametrize("name", ["bicg", "gesummv"])
    def test_every_point_without_the_pipeline_dimension(self, name):
        # What a sweep builds by default: the II is the last index.
        context = kernel_context(name, 4)
        assert context.space.pipeline_options == ["default"]
        assert context.space.ii_dimension \
            == context.space.num_dimensions - 1
        assert check_classes(context) == context.space.num_points

    @pytest.mark.parametrize("name", EXHAUSTIVE_IN_CI)
    def test_a_stratified_sample_of_a_table3_kernel(self, name, three_cleanups):
        # Tier-1's share of the exhaustive test above: the same check on
        # every stratum of the space, the II representative rotating as
        # there.  (Tile-clamp aliases of a sampled class ride along.)
        context = kernel_context(name, 4)
        space = context.space
        sample = stratified_classes(space)
        assert {stratum(point) for point in sample} \
            == {stratum(space.decode(encoded))
                for encoded in space.all_points()}
        compared = check_classes(context, keep=sample.__contains__)
        assert len(sample) * len(space.ii_options) <= compared \
            < space.num_points // 4

    def test_a_registered_pipeline(self):
        with cleanups.registered({
                "test-forward-only": "canonicalize,affine-store-forward,cse"}):
            context = kernel_context("gesummv", 4)
            assert context.space.pipeline_options \
                == ["default", "test-forward-only"]
            compared = check_classes(
                context, keep=lambda point: point.pipeline == "test-forward-only")
            assert compared == context.space.num_points // 2

    def test_a_two_platform_space(self, three_cleanups):
        # zcu102 models two ports per bank and an off-chip link, so both
        # the resource II and the bandwidth floor differ between the two.
        platforms = [XC7Z020, PLATFORMS["zcu102"]]
        context = kernel_context("bicg", 4, platforms=platforms)
        assert check_classes(context) == context.space.num_points
        record = evaluate_encoded(context, (0,) * context.space.num_dimensions)
        assert record.platform_hash == XC7Z020.config_hash()
        assert {sibling.platform_hash for sibling in record.siblings} \
            == {record.platform_hash}

    def test_sampled_points_of_each_vgg16_fingerprint_class(self, three_cleanups):
        from repro.dse.space import ir_digest

        _, nodes = staged_nodes("vgg16")
        representatives = {}
        for func_op in nodes[:12]:
            representatives.setdefault(ir_digest(func_op), func_op)
        assert len(representatives) >= 4
        rng = random.Random(13)
        for func_op in representatives.values():
            context = function_context(single_function_module(func_op),
                                       VU9P_SLR)
            for _ in range(3):
                derived = class_records(context,
                                        context.space.random_point(rng))
                for other, record in derived.items():
                    assert_same_record(record, direct_record(context, other))

    def test_unpipelineable_point_shares_one_qor(self):
        # trmm's imperfect band pipelines the j loop, whose nested k loop has
        # variable bounds: without perfectization or bound removal
        # pipeline_loop raises PassError and no directive is set at all.
        context = kernel_context("trmm", 4)
        encoded = next(
            encoded for encoded in context.space.all_points()
            if not context.space.decode(encoded).loop_perfectization
            and not context.space.decode(encoded).remove_variable_bound)
        point = context.space.decode(encoded)
        _, func_op = optimize_kernel_module(context.module, point,
                                            context.func_name)
        assert pipelined_loops(func_op) == []
        record = evaluate_encoded(context, encoded)
        assert record.achieved_ii is None
        assert len(record.siblings) == len(context.space.ii_options) - 1
        for sibling in record.siblings:
            assert sibling.qor == record.qor and sibling.achieved_ii is None
            assert sibling.point == dataclasses.replace(
                point, target_ii=sibling.point.target_ii)

    GUARDED = """
void guarded(float alpha, float A[4][4], float B[4][4]) {
  for (int i = 0; i < 4; i++) {
    for (int j = 0; j < 4; j++) {
      for (int k = i + 1; k < 4; k++) {
        B[i][j] += A[k][i] * B[k][j];
      }
      B[i][j] = alpha * B[i][j];
    }
  }
  if (alpha > 0.0) {
    for (int m = 0; m < 4; m++) {
      B[m][0] = alpha;
    }
  }
}
"""

    def test_achieved_ii_from_the_directive_fallback(self):
        # A dataflow function estimates its top-level loops only, so the
        # loop under the scf.if — pipelined before the sweep, at II 3 — is
        # a directive the estimator never reaches.  Where the design point
        # sets no directive of its own (PassError, as above) the estimator
        # reports no achieved II and the record falls back to that one.
        module = compile_c(self.GUARDED, "guarded")
        func_op = module.functions()[0]
        set_func_directive(func_op, FuncDirective(dataflow=True))
        guarded_loop = next(op for op in func_op.walk()
                            if op.name == "affine.for"
                            and op.parent_op.name == "scf.if")
        pipeline_loop(guarded_loop, 3)
        context = function_context(module, XC7Z020)
        unpipelineable = lambda point: (not point.loop_perfectization
                                        and not point.remove_variable_bound)
        assert check_classes(context, keep=unpipelineable) \
            == context.space.num_points // 4
        encoded = next(encoded for encoded in context.space.all_points()
                       if unpipelineable(context.space.decode(encoded)))
        record = evaluate_encoded(context, encoded)
        assert record.qor.achieved_ii is None and record.achieved_ii == 3
        assert {sibling.achieved_ii for sibling in record.siblings} == {3}
        # With a directive of its own the estimator's figure wins.
        pipelined = next(encoded for encoded in context.space.all_points()
                         if context.space.decode(encoded).loop_perfectization)
        for record in class_records(context, pipelined).values():
            assert record.achieved_ii == record.qor.achieved_ii
            assert_same_record(record, direct_record(context, record.encoded))

    def test_clamp_aliases_differ_in_encoded_only(self):
        context = kernel_context("gemm", 8)
        space = context.space
        position = space.ii_dimension
        widest = tuple(len(options) - 1 for options in space.dimensions)
        widest = widest[:position] + (0,) + widest[position + 1:]
        aliases = [encoded for encoded in space.all_points()
                   if encoded != widest and encoded[:3] == widest[:3]
                   and space.decode(encoded) == space.decode(widest)]
        assert aliases  # 8*8*8 exceeds MAX_UNROLL_PRODUCT and is clamped
        record = evaluate_encoded(context, widest)
        alias = evaluate_encoded(context, aliases[0])
        assert alias.encoded != record.encoded
        assert_same_record(dataclasses.replace(alias, encoded=record.encoded),
                           record)
        assert alias.to_json_dict() == {**record.to_json_dict(),
                                        "encoded": list(alias.encoded)}


# -- the estimator laws a multi-II call gives for free ----------------------------------------


def applied_designs(size: int = 8, per_kernel: int = 4):
    """A few applied designs per Table III kernel, pipelined loop included."""
    rng = random.Random(17)
    for name in KERNEL_NAMES:
        context = kernel_context(name, size)
        found = 0
        while found < per_kernel:
            point = context.space.decode(context.space.random_point(rng))
            module, func_op = optimize_kernel_module(context.module, point,
                                                     context.func_name)
            loops = pipelined_loops(func_op)
            if len(loops) == 1:
                found += 1
                yield module, func_op, loops[0]


def model_class_designs(model: str, tries: int = 8):
    """One applied design with a pipelined loop per structural class of the
    explorable nodes of ``model`` at graph level 7 (classes none of whose
    ``tries`` sampled points keeps a pipelined loop are left out)."""
    from repro.dse.space import ir_digest

    _, nodes = staged_nodes(model)
    classes = {}
    for func_op in nodes:
        classes.setdefault(ir_digest(func_op), func_op)
    rng = random.Random(29)
    for func_op in classes.values():
        context = function_context(single_function_module(func_op), VU9P_SLR)
        for _ in range(tries):
            point = context.space.decode(context.space.random_point(rng))
            module, applied = optimize_kernel_module(context.module, point,
                                                     context.func_name)
            loops = pipelined_loops(applied)
            if len(loops) == 1:
                yield module, applied, loops[0]
                break


def assert_multi_ii_equals_single_calls(module, func_op, retarget, platform,
                                        iis=(1, 2, 3, 4, 8, 16)):
    """One multi-II call against, per II, a call on a clone whose copy of
    ``retarget`` (a loop or a function; gone from the IR is fine) carries
    that II: results and achieved IIs equal, no resources shared."""
    from repro.dialects.hlscpp import get_func_directive

    together = QoREstimator(platform).estimate_function(
        func_op, module=module, retarget=retarget, target_iis=iis)
    assert len({id(result.resources) for result in together}) == len(iis)
    position = next((index for index, op in enumerate(module.walk())
                     if op is retarget), None)
    for target_ii, result in zip(iis, together):
        clone = module.clone()
        if position is not None:
            owner = list(clone.walk())[position]
            directive = get_loop_directive(owner) or get_func_directive(owner)
            directive.target_ii = target_ii
        alone = QoREstimator(platform).estimate_function(
            clone.lookup(func_op.get_attr("sym_name")), module=clone)
        assert result == alone
        assert result.achieved_ii == alone.achieved_ii


class TestEstimatorLaws:
    IIS = (1, 2, 3, 4, 8, 16)

    def test_dsp_falls_and_interval_rises_with_the_target_ii(self):
        for module, func_op, loop in applied_designs():
            results = QoREstimator(XC7Z020).estimate_function(
                func_op, module=module, retarget=loop, target_iis=self.IIS)
            assert len(results) == len(self.IIS)
            for lower, higher in zip(results, results[1:]):
                assert higher.dsp <= lower.dsp
                assert higher.interval >= lower.interval
                assert higher.latency >= lower.latency
                assert higher.achieved_ii >= lower.achieved_ii

    def test_multi_ii_call_equals_single_calls_on_a_clone(self):
        estimator = QoREstimator(XC7Z020)
        for module, func_op, loop in applied_designs(per_kernel=2):
            own_target = get_loop_directive(loop).target_ii
            together = estimator.estimate_function(
                func_op, module=module, retarget=loop, target_iis=self.IIS)
            # The directive in the IR is read, never written.
            assert get_loop_directive(loop).target_ii == own_target
            for target_ii, result in zip(self.IIS, together):
                clone = module.clone()
                clone_func = clone.lookup(func_op.get_attr("sym_name"))
                (clone_loop,) = pipelined_loops(clone_func)
                get_loop_directive(clone_loop).target_ii = target_ii
                alone = QoREstimator(XC7Z020).estimate_function(
                    clone_func, module=clone)
                assert result == alone
                assert result.achieved_ii == alone.achieved_ii

    # The one walk leaves only the retargeted owner and its ancestors to
    # close per II; these inputs put that owner at the other places it can
    # sit, with each result checked against a single-II call on a clone.

    def test_multi_ii_on_every_loop_level_class_of_three_models(self):
        """Shallow nests: every block of a node encloses the pipelined loop."""
        checked = 0
        for model in ("vgg16", "resnet18", "mobilenet"):
            for module, func_op, loop in model_class_designs(model):
                assert_multi_ii_equals_single_calls(module, func_op, loop,
                                                    VU9P_SLR)
                checked += 1
        assert checked >= 40

    def test_multi_ii_on_a_flattened_pipelined_nest(self):
        found = 0
        for module, func_op, loop in applied_designs(per_kernel=6):
            parent = get_loop_directive(loop.parent_op)
            if parent is not None and parent.flatten:
                assert_multi_ii_equals_single_calls(module, func_op, loop, XC7Z020)
                found += 1
        assert found

    def test_multi_ii_on_a_dataflow_function_with_callees(self):
        from repro.frontend.pytorch_like import GraphBuilder
        from repro.transforms import (legalize_dataflow, lower_graph_to_loops,
                                      split_function)

        builder = GraphBuilder("chain", (1, 4, 8, 8))
        x = builder.relu(builder.input)
        x = builder.conv2d(x, 4, 3, padding=1)
        x = builder.relu(x)
        module = builder.finish(x)
        top = module.functions()[0]
        legalize_dataflow(top)
        split_function(module, top)
        lower_graph_to_loops(module)
        for callee in module.functions()[1:]:
            innermost = [op for op in callee.walk()
                         if op.name == "affine.for"
                         and not any(inner.name == "affine.for"
                                     for inner in op.body.operations)]
            pipeline_loop(innermost[0], 1)
        assert any(op.name == "func.call" for op in top.walk())
        loops = [loop for callee in module.functions()[1:]
                 for loop in pipelined_loops(callee)]
        assert len(loops) >= 2
        for loop in loops:
            assert_multi_ii_equals_single_calls(module, top, loop, VU9P_SLR)

    def test_multi_ii_on_a_pipelined_function(self):
        from repro.transforms import pipeline_function

        module = compile_c(kernel_source("bicg", 4), "bicg")
        func_op = module.functions()[0]
        pipeline_function(func_op, 2)
        assert_multi_ii_equals_single_calls(module, func_op, func_op, XC7Z020)

    def test_multi_ii_when_canonicalize_dissolved_the_pipelined_loop(self):
        """A trip-1 pipelined loop the cleanup promotes: the retarget is no
        longer in the IR, and every II gets the one estimate."""
        from repro.dse.apply import _transform

        found = 0
        for name in KERNEL_NAMES:
            context = kernel_context(name, 4)
            rng = random.Random(23)
            for _ in range(12):
                point = context.space.decode(context.space.random_point(rng))
                module, func_op, loop, _ = _transform(
                    context.module, point, context.func_name, None, None)
                if loop is not None and loop.parent is None:
                    assert_multi_ii_equals_single_calls(module, func_op, loop,
                                                        XC7Z020)
                    found += 1
        assert found

    def test_retargeting_a_pipelined_function(self):
        from repro.transforms import pipeline_function

        module = compile_c(kernel_source("bicg", 4), "bicg")
        func_op = module.functions()[0]
        pipeline_function(func_op, 2)
        together = QoREstimator(XC7Z020).estimate_function(
            func_op, module=module, retarget=func_op, target_iis=(1, 2, 8))
        assert together[1] == QoREstimator(XC7Z020).estimate_function(
            func_op, module=module)
        assert [result.achieved_ii for result in together] \
            == sorted(result.achieved_ii for result in together)
        assert together[0].dsp >= together[2].dsp

    def test_no_analysis_state_outlives_a_call(self):
        module, func_op, loop = next(applied_designs(per_kernel=1))
        estimator = QoREstimator(XC7Z020)
        idle = dict(vars(estimator))
        estimator.estimate_function(func_op, module=module, retarget=loop,
                                    target_iis=self.IIS)
        assert vars(estimator) == idle
        # The second closing fails on its target II, after the first one
        # filled the per-call analyses.
        with pytest.raises(ValueError):
            estimator.estimate_function(func_op, module=module, retarget=loop,
                                        target_iis=(1, "two"))
        assert vars(estimator) == idle

    def test_pickle_round_trip(self):
        module, func_op, loop = next(applied_designs(per_kernel=1))
        estimator = QoREstimator(XC7Z020)
        before = estimator.estimate_function(
            func_op, module=module, retarget=loop, target_iis=self.IIS)
        revived = pickle.loads(pickle.dumps(estimator))
        assert vars(revived) == vars(estimator)
        after = revived.estimate_function(
            func_op, module=module, retarget=loop, target_iis=self.IIS)
        assert after == before


# -- the runtime: same artifacts as the parent commit, fewer evaluations ----------------------

#: A gemm sweep whose trajectory asks for three II-siblings of points it
#: evaluated and three program aliases (two of them tile-clamp aliases).
#: ``tests/golden/gemm8_class_sweep.json`` holds its records in trajectory
#: order, frontier, the estimate-cache file, the checkpoint of the run capped
#: at 9 points, plus the records under the ``poison:select=3`` plan.  First written by the
#: commit before transform classes (8d93493, one evaluation per point);
#: written again, by this sweep, when the cleanup-pipeline dimension left the
#: default space and the trajectory with it (the files' layout did not move).
#: Its checkpoint was written again when checkpoints came to hold records
#: only (same records, ``GOLDEN_V1_CHECKPOINT``).  Its fingerprint, and the
#: v1 checkpoint's fingerprint and ``config.pipeline``, were written again
#: when the cleanup tail was cut to four passes (records, frontier and
#: cache lines unchanged but for the fingerprint), so the v1 file is ignored
#: for its version alone.
SWEEP = dict(num_samples=8, max_iterations=12, seed=2022, batch_size=8)

#: Points of that trajectory a classmate's evaluation answers from another
#: target II, and that ``select=2`` fault plans pick as victims.
SIBLING_VICTIMS = [(1, 0, 2, 0, 3, 1, 0), (0, 0, 0, 2, 3, 3, 0)]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def gemm8():
    return compile_c(kernel_source("gemm", 8), "gemm")


def document(result) -> dict:
    return {"records": [record.to_json_dict()
                        for record in result.records.values()],
            "frontier": [list(point.encoded) for point in result.frontier],
            "best": list(result.best_record.encoded)}


def explore(module, tmp_path=None, max_evaluations=None, cached=True,
            **overrides):
    """One sweep; with ``tmp_path`` it writes a cache file (unless not
    ``cached``, then a checkpoint)."""
    config = dict(SWEEP, **overrides)
    cache = checkpoint_dir = None
    if tmp_path is not None:
        if cached:
            cache = EstimateCache(str(tmp_path / "cache.jsonl"))
        config.update(cache=cache, checkpoint_every=4)
        checkpoint_dir = str(tmp_path)
    try:
        return explore_kernel(module, XC7Z020, checkpoint_dir=checkpoint_dir,
                              max_evaluations=max_evaluations, **config)
    finally:
        if cache is not None:
            cache.close()


def resolved(run) -> tuple:
    """``run()``'s result and the points it resolved from a classmate, as
    ``(II-siblings, aliases)`` read off the ``dse.resolved.*`` counters."""
    with obs.session() as session:
        result = run()
    counters = session.metrics.counters
    return result, (counters.get("dse.resolved.siblings", 0),
                    counters.get("dse.resolved.aliases", 0))


def assert_snapshots_invisible(result) -> None:
    """For every point the sweep behind ``result`` visited, evaluating from
    scratch (``snapshots=None``, what one-off callers such as
    ``materialize`` run) equals evaluating against prefix snapshots (what
    every backend runs), field for field."""
    context = KernelContext(module=result.module, func_name=result.func_name,
                            platform=result.platform, space=result.space)
    snapshots = PrefixSnapshotCache()
    for encoded in result.records:
        assert evaluate_encoded(context, encoded, snapshots=None) \
            == evaluate_encoded(context, encoded, snapshots=snapshots)
    assert snapshots.hits > 0


def assert_files_match(tmp_path, golden):
    """A cached sweep leaves the golden cache file and no checkpoint: the
    cache holds every record."""
    assert (tmp_path / "cache.jsonl").read_text() == golden["cache"]
    assert not (tmp_path / "kernel.ckpt.json").exists()


class TestSweepMatchesTheParentCommit:
    def test_the_sweep_has_siblings_and_aliases(self, gemm8, golden,
                                                monkeypatch):
        dispatched = []
        evaluate = worker.evaluate_encoded

        def recording(context, encoded, snapshots=None, fault_key=""):
            dispatched.append(tuple(encoded))
            return evaluate(context, encoded, snapshots, fault_key)

        monkeypatch.setattr(worker, "evaluate_encoded", recording)
        result, counts = resolved(lambda: explore(gemm8))
        assert document(result) == golden["clean"]
        assert result.fingerprint == golden["fingerprint"]
        assert counts == (3, 3)
        assert len(dispatched) == len(set(dispatched)) \
            == result.num_evaluations - 6
        assert not set(SIBLING_VICTIMS) & set(dispatched)
        assert set(SIBLING_VICTIMS) <= set(result.records)
        # What the explorer keeps is what was asked for, nothing riding on it.
        assert all(record.siblings == () for record in result.records.values())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_records_cache_file_and_checkpoint(self, gemm8, golden, tmp_path,
                                               jobs):
        result = explore(gemm8, tmp_path, jobs=jobs)
        assert document(result) == golden["clean"]
        assert_files_match(tmp_path, golden)
        # Siblings nobody asked for reach no file.
        stored = [json.loads(line)["record"]["encoded"]
                  for line in golden["cache"].splitlines()]
        assert sorted(map(tuple, stored)) == sorted(result.records)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_without_a_cache(self, gemm8, golden, jobs):
        assert document(explore(gemm8, jobs=jobs)) == golden["clean"]

    def test_without_incremental_snapshots(self, gemm8, golden):
        result = explore(gemm8)
        assert document(result) == golden["clean"]
        assert_snapshots_invisible(result)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_from_a_mid_sweep_checkpoint(self, gemm8, golden, tmp_path,
                                                jobs):
        bare = tmp_path / "bare"
        partial = explore(gemm8, bare, max_evaluations=9, cached=False)
        assert partial.num_evaluations < len(golden["clean"]["records"])
        # A capped cacheless run checkpoints the records it always did.
        assert (bare / "kernel.ckpt.json").read_text() == golden["checkpoint"]
        assert json.loads(golden["checkpoint"])["records"] \
            == json.loads(GOLDEN_V1_CHECKPOINT.read_text())["records"]
        # The re-run process starts with no run-local class results: a
        # sibling of a point evaluated before the interruption is evaluated
        # again, to the same record.
        resumed, counts = resolved(
            lambda: explore(gemm8, bare, jobs=jobs, cached=False))
        assert document(resumed) == golden["clean"]
        assert sum(counts) < 6

    def test_a_version_1_checkpoint_is_ignored(self, gemm8, golden, tmp_path):
        # The same capped run's checkpoint in the layout that also stored
        # the generator's state and the trajectory config: not served.
        (tmp_path / "kernel.ckpt.json").write_bytes(
            GOLDEN_V1_CHECKPOINT.read_bytes())
        resumed = explore(gemm8, tmp_path, cached=False)
        assert resumed.evaluated_this_run == resumed.num_evaluations
        assert document(resumed) == golden["clean"]
        assert json.loads((tmp_path / "kernel.ckpt.json").read_text())[
            "version"] == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rerun_of_a_capped_cached_sweep(self, gemm8, golden, tmp_path,
                                            jobs):
        partial = explore(gemm8, tmp_path, max_evaluations=9)
        assert partial.num_evaluations < len(golden["clean"]["records"])
        assert not (tmp_path / "kernel.ckpt.json").exists()
        rerun = explore(gemm8, tmp_path, jobs=jobs)
        assert document(rerun) == golden["clean"]
        assert_files_match(tmp_path, golden)
        assert rerun.cache_hits == partial.num_evaluations
        again = explore(gemm8, tmp_path)
        assert again.evaluated_this_run == 0
        assert document(again) == golden["clean"]
        assert_files_match(tmp_path, golden)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_recoverable_faults_on_would_be_siblings(self, gemm8, golden,
                                                     tmp_path, jobs):
        plan = FaultPlan(mode="crash", select=2, times=1,
                         state_dir=str(tmp_path / "ledger"))
        result, counts = resolved(
            lambda: explore(gemm8, tmp_path, jobs=jobs, faults=plan))
        assert document(result) == golden["clean"]
        assert_files_match(tmp_path, golden)
        # Victims are dispatched themselves, so the plan fired on the very
        # points a classmate would otherwise have answered.
        for encoded in SIBLING_VICTIMS:
            assert plan.matches("kernel", encoded)
            assert os.path.getsize(plan._ledger_path("kernel", encoded)) == 2
        assert sum(counts) < 6

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poison_quarantines_what_the_parent_quarantined(
            self, gemm8, golden, tmp_path, jobs):
        plan = FaultPlan(mode="poison", select=3,
                         state_dir=str(tmp_path / "ledger"))
        result = explore(gemm8, jobs=jobs, faults=plan,
                         supervision=SupervisionPolicy(max_retries=1))
        assert document(result) == golden["poison"]
        quarantined = result.quarantined_records()
        assert quarantined and all(
            plan.matches("kernel", record.encoded) for record in quarantined)
        # One of them follows a healthy classmate in the trajectory: without
        # the victim rule that classmate's evaluation would have answered
        # it, as a healthy sibling.
        def without_ii(point):
            return dataclasses.replace(point, target_ii=1)

        order = list(result.records)
        first_healthy = {}
        for index, record in enumerate(result.records.values()):
            if record.ok:
                first_healthy.setdefault(without_ii(record.point), index)
        assert sum(first_healthy.get(without_ii(record.point), len(order))
                   < order.index(record.encoded)
                   for record in quarantined) == 1

    def test_mates_of_a_quarantined_representative_are_dispatched(
            self, gemm8, monkeypatch):
        # The first point of every class fails for good — not through a
        # fault plan, so nothing marks it beforehand — and its batch-mates
        # must then be evaluated individually, as without classes.
        context = function_context(single_function_module(
            gemm8.functions()[0]), XC7Z020)
        space = context.space
        position = space.ii_dimension
        base = space.random_point(random.Random(5))
        batch = [base[:position] + (index,) + base[position + 1:]
                 for index in range(len(space.ii_options))]
        evaluate = worker.evaluate_encoded
        dispatched = []

        def first_of_class_fails(context, encoded, snapshots=None,
                                 fault_key=""):
            dispatched.append(tuple(encoded))
            if tuple(encoded) == batch[0]:
                raise RuntimeError("no luck")
            return evaluate(context, encoded, snapshots, fault_key)

        monkeypatch.setattr(worker, "evaluate_encoded", first_of_class_fails)
        monkeypatch.setattr(
            "repro.dse.engine.ExplorationPolicy.initial_batch",
            staticmethod(lambda space, rng, num_samples: list(batch)))
        task = KernelTask(key="kernel", module=context.module,
                          func_name=None, space=space)
        result = scheduler.explore_kernels([task], XC7Z020, SweepConfig(
            num_samples=4, max_iterations=0, seed=1,
            supervision=SupervisionPolicy(max_retries=0)))["kernel"]
        assert [record.ok for record in result.records.values()] \
            == [False, True, True, True]
        assert dispatched == batch
        for encoded in batch[1:]:
            assert_same_record(result.records[encoded],
                               direct_record(context, encoded))

    def test_counters_equal_at_any_jobs(self, gemm8):
        def counters(jobs):
            with obs.session() as session:
                explore(gemm8, jobs=jobs)
            values = dict(session.metrics.counters)
            return {name: values[name] for name in (
                "dse.points", "dse.evaluations", "dse.resolved.siblings",
                "dse.resolved.aliases", "estimate.calls")}, session

        serial, _ = counters(1)
        pooled, session = counters(2)
        assert serial == pooled == {
            "dse.points": 20, "dse.evaluations": 14, "estimate.calls": 14,
            "dse.resolved.siblings": 3, "dse.resolved.aliases": 3}
        summary = render_run_summary(session.metrics.to_json_dict())
        assert "resolved 6 of 20 points from 14 transformed classes" in summary
        batches = [span for spans in session.tracer.tracks().values()
                   for span in spans if span.name == "dse.batch"]
        assert sum(span.args["classes"] for span in batches) == 14

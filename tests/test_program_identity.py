"""Program identity: design points that stage to one program are evaluated
once.

A transform class is keyed by what the rest of the evaluation is a function
of — the digest of the post-prefix IR, what the staging plans to do with its
band (``plan_design_point``: permutation applied, tile sizes applied), the
cleanup pipeline and the platform — not by knob values, so every knob
setting the plan drops (a permutation that does not fit the band, tile sizes
beyond it, tilings the band refuses) lands in the class of the program it
actually produces.  Two things license that and are checked here over whole
design spaces: the plan key partitions knob settings exactly as the digest
of the staged IR does (the oracle, kept in this file with the try/except
staging it replaced), and a record resolved from a classmate equals, field
for field, the from-scratch evaluation of the asking point.

A knob may be left out of the identity (as the target II is) only together
with a test like ``TestAliasesEqualDirectEvaluation`` proving that nothing
after the staging reads it except through the IR.
"""

import collections
import random

import pytest

from repro import obs
from repro.dialects.affine_ops import outermost_loops, perfect_loop_band
from repro.dialects.hlscpp import LoopDirective, set_loop_directive
from repro.dse import apply as dse_apply
from repro.dse import incremental
from repro.dse.apply import cleanup_pipeline_spec
from repro.dse.incremental import (
    PrefixSnapshotCache,
    build_prefix,
    post_prefix_band,
)
from repro.dse.runtime import FaultPlan, SupervisionPolicy, worker
from repro.dse.runtime.parallel import _ClassResults, _ProgramIdentities
from repro.dse.runtime.worker import evaluate_encoded
from repro.dse.space import KernelDesignPoint, ir_digest
from repro.estimation import VU9P_SLR, XC7Z020
from repro.estimation.platform import PLATFORMS
from repro.ir.pass_manager import PassError, PassManager, dump_ir_after
from repro.kernels import KERNEL_NAMES
from repro.pipeline import compile_c
from repro.transforms import permute_loop_band, tile_loop_band
from repro.transforms.composite import (
    band_shape,
    knobs_not_applied,
    plan_design_point,
    run_design_point_suffix,
    stage_design_point,
)

import cleanups
import test_kernel_identity as dnn
from test_kernel_identity import (
    masked_document,
    single_function_module,
    staged_nodes,
)
from test_transform_classes import (  # noqa: F401  (fixtures)
    assert_files_match,
    assert_same_record,
    assert_snapshots_invisible,
    direct_record,
    document,
    explore,
    function_context,
    gemm8,
    golden,
    kernel_context,
    pipelined_loops,
    resolved,
)


# -- helpers --------------------------------------------------------------------------------


def identities(context) -> _ProgramIdentities:
    """The runtime's own identity code."""
    return _ProgramIdentities(context.module, context.func_name)


def vgg16_representatives() -> list:
    """One node of each fingerprint class of the staged vgg16."""
    _, nodes = staged_nodes("vgg16")
    representatives = {}
    for func_op in nodes:
        representatives.setdefault(ir_digest(func_op), func_op)
    return list(representatives.values())


def knobs_of(point):
    return (point.loop_perfectization, point.remove_variable_bound,
            point.perm_map, point.tile_sizes)


def identity_groups(context) -> dict:
    """Every point of the space, grouped by identity: ``{identity: [encoded]}``."""
    programs = identities(context)
    groups = collections.defaultdict(list)
    for encoded in context.space.all_points():
        groups[programs.of(context.space.decode(encoded))].append(encoded)
    return groups


def check_groups(context, keep=lambda index, identity: True, seed=29) -> int:
    """In every multi-member group, the record the runtime resolves for
    sampled members from one evaluation of a classmate equals the member's
    direct evaluation.  Returns the number of groups checked."""
    space = context.space
    rng = random.Random(seed)
    checked = 0
    groups = identity_groups(context)
    assert sum(len(members) for members in groups.values()) == space.num_points
    for index, (identity, members) in enumerate(groups.items()):
        decoded = {encoded: space.decode(encoded) for encoded in members}
        if len({knobs_of(point) for point in decoded.values()}) < 2 \
                or not keep(index, identity):
            continue
        # The representative's target II rotates from group to group.
        representative = members[index % len(space.ii_options)]
        strangers = [encoded for encoded in members
                     if knobs_of(decoded[encoded])
                     != knobs_of(decoded[representative])]
        sampled = [rng.choice(strangers), rng.choice(members)]
        classes = _ClassResults()
        classes.add(evaluate_encoded(context, representative), identity)
        for encoded in sampled:
            point = decoded[encoded]
            assert (identity, point.target_ii) in classes
            resolved = classes.resolve(identity, point, encoded)
            assert (resolved.encoded, resolved.point) == (encoded, point)
            assert_same_record(resolved, direct_record(context, encoded))
        assert classes.siblings + classes.aliases == len(sampled)
        checked += 1
    return checked


# -- a record resolved from a program alias equals the per-point evaluation ------------------


class TestAliasesEqualDirectEvaluation:
    #: Multi-member programs of each n=4 Table III space (bicg's band is
    #: perfect with constant bounds: every knob shows in its staged IR).
    PROGRAMS = {"bicg": 0, "gemm": 9, "gesummv": 3, "syr2k": 35, "syrk": 35,
                "trmm": 18}

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_every_group_of_a_table3_kernel(self, name, three_cleanups):
        context = kernel_context(name, 4)
        assert set(context.space.pipeline_options) \
            == {"default", *cleanups.RETIRED}
        # One group per program and cleanup pipeline.
        assert check_groups(context) == 3 * self.PROGRAMS[name]

    def test_a_two_platform_space(self, three_cleanups):
        platforms = [XC7Z020, PLATFORMS["zcu102"]]
        context = kernel_context("gemm", 4, platforms=platforms)
        assert check_groups(context) == 2 * 3 * self.PROGRAMS["gemm"]

    def test_a_space_without_the_pipeline_dimension(self):
        context = kernel_context("gemm", 4)
        assert context.space.pipeline_options == ["default"]
        assert check_groups(context) == self.PROGRAMS["gemm"]

    def test_one_node_of_each_vgg16_fingerprint_class(self, three_cleanups):
        representatives = vgg16_representatives()
        assert len(representatives) == 28
        checked = 0
        for func_op in representatives:
            context = function_context(single_function_module(func_op),
                                       VU9P_SLR)
            pipelines = [cleanup_pipeline_spec(name)
                         for name in context.space.pipeline_options]
            assert len(pipelines) == 3
            # Every program, each under one cleanup pipeline, in rotation.
            ranks: dict = {}
            checked += check_groups(
                context, keep=lambda index, identity: pipelines[
                    ranks.setdefault(identity[:2], len(ranks)) % 3]
                == identity[2])
        assert checked > 100


# -- the plan key partitions knob settings exactly as the staged IR does ----------------------


def parent_stage_design_point(func_op, perm, tiles):
    """``stage_design_point`` as it was before the plan existed: call each
    transform and swallow its refusal.  The oracle for what the plan may
    call and must leave alone."""
    band = perfect_loop_band(outermost_loops(func_op)[0])
    if len(perm) == len(band):
        try:
            band = permute_loop_band(band, perm)
        except PassError:
            pass
    tile_loops = band
    if any(size > 1 for size in tiles[: len(band)]):
        sizes = list(tiles[: len(band)])
        sizes += [1] * (len(band) - len(sizes))
        try:
            tile_loops, _ = tile_loop_band(band, sizes)
        except PassError:
            tile_loops = band
    return tile_loops[-1]


def staged_ir(func_op, target) -> tuple:
    """The program a staging left: the IR's digest and where, in walk order,
    the loop it hands to ``pipeline_loop`` sits."""
    return ir_digest(func_op), next(
        index for index, op in enumerate(func_op.walk()) if op is target)


def check_partition(context) -> tuple[int, int]:
    """Over every knob setting of the space: the new staging leaves the IR
    the old one left, and grouping by the runtime's plan key equals grouping
    by that IR.  Returns ``(knob settings, programs)``."""
    snapshots = PrefixSnapshotCache()
    programs = identities(context)
    by_plan = collections.defaultdict(set)
    by_oracle = collections.defaultdict(set)
    settings = {knobs_of(point): point for point in
                map(context.space.decode, context.space.all_points())}
    for knobs, point in settings.items():
        suffix = dse_apply.design_point_suffix_pass(point)
        staged = []
        for stage in (parent_stage_design_point, stage_design_point):
            _, func_op = snapshots.checkout(context.module, point,
                                            context.func_name,
                                            digest=context.space.ir_digest)
            staged.append(staged_ir(
                func_op, stage(func_op, suffix.perm, suffix.tiles)))
        assert staged[0] == staged[1]
        by_oracle[staged[0]].add(knobs)
        by_plan[programs.of(point)[:2]].add(knobs)
    # Equal partitions: no plan key spans two programs (unsound), no program
    # is split over two plan keys (missed).
    assert sorted(map(sorted, by_plan.values())) \
        == sorted(map(sorted, by_oracle.values()))
    assert len(programs) <= 4
    return len(settings), len(by_oracle)


class TestPlanKeyPartitionsLikeTheStagedIR:
    def test_every_knob_setting_of_the_table3_spaces(self):
        counts = [check_partition(kernel_context(name, 4))
                  for name in KERNEL_NAMES]
        assert tuple(map(sum, zip(*counts))) == (1458, 418)

    def test_every_knob_setting_of_each_vgg16_fingerprint_class(self):
        counts = [check_partition(function_context(
            single_function_module(func_op), VU9P_SLR))
            for func_op in vgg16_representatives()]
        assert len(counts) == 28
        assert tuple(map(sum, zip(*counts))) == (4434, 362)

    def test_trmm_perfectization_is_a_no_op_the_prefix_key_would_split(self):
        # trmm's inner loop has a variable bound: lp=yes finds nothing to
        # sink, so both settings are one program — told by the digest.
        context = kernel_context("trmm", 4)
        programs = identities(context)
        plain, perfectized = (
            programs.of(point((0, 1, 2), (2, 1, 1), lp=lp))
            for lp in (False, True))
        assert plain == perfectized and len(programs) == 2


# -- what the identity covers ----------------------------------------------------------------


THREES = """
void threes(float A[3][3], float B[3][3]) {
  for (int i = 0; i < 3; i++) {
    for (int j = 0; j < 3; j++) {
      B[i][j] = A[j][i] + B[i][j];
    }
  }
}
"""

STRIDED = """
void strided(float A[8][8], float B[8][8]) {
  for (int i = 0; i < 8; i += 2) {
    for (int j = 0; j < 8; j++) {
      B[i][j] = A[j][i] + B[i][j];
    }
  }
}
"""


def point(perm, tiles, lp=False, rvb=False, ii=1, pipeline="default",
          platform=""):
    return KernelDesignPoint(lp, rvb, tuple(perm), tuple(tiles), ii,
                             pipeline=pipeline, platform=platform)


class TestWhatTheIdentityCovers:
    def test_a_tile_size_inside_the_band(self):
        context = kernel_context("gemm", 4)
        programs = identities(context)
        perm = (0, 1, 2)
        tiled = programs.of(point(perm, (2, 1, 1), lp=True))
        assert tiled != programs.of(point(perm, (4, 1, 1), lp=True))
        assert tiled != programs.of(point(perm, (1, 2, 1), lp=True))
        assert tiled != programs.of(point(perm, (1, 1, 1), lp=True))
        assert tiled != programs.of(point((1, 0, 2), (2, 1, 1), lp=True))
        # Without perfectization the perfect band is (i, j): a permutation of
        # three loops does not fit it and the third tile size is never read.
        assert programs.of(point(perm, (2, 1, 1))) \
            == programs.of(point((2, 1, 0), (2, 1, 4)))
        assert programs.of(point(perm, (2, 1, 1))) \
            != programs.of(point(perm, (2, 2, 1)))

    def test_the_target_ii_is_not_part_of_it(self):
        programs = identities(kernel_context("gemm", 4))
        assert programs.of(point((0, 1, 2), (2, 1, 1), ii=1)) \
            == programs.of(point((0, 1, 2), (2, 1, 1), ii=8))
        assert len(programs) == 1

    def test_the_cleanup_pipeline_and_the_platform(self, three_cleanups):
        platforms = [XC7Z020, PLATFORMS["zcu102"]]
        programs = identities(kernel_context("gemm", 4, platforms=platforms))
        base = programs.of(point((0, 1, 2), (2, 1, 1), platform="xc7z020"))
        assert base != programs.of(point((0, 1, 2), (2, 1, 1),
                                         pipeline="test-light",
                                         platform="xc7z020"))
        assert base != programs.of(point((0, 1, 2), (2, 1, 1),
                                         platform="zcu102"))
        assert len(programs) == 1  # one staged program behind all three

    def test_the_loop_about_to_be_pipelined(self):
        # Not a separate part of the identity: the staging returns the
        # innermost loop of the band it planned, and the suffix pipelines
        # exactly that loop.
        context = kernel_context("gemm", 4)
        staged = point((0, 1, 2), (1, 1, 2), lp=True)
        _, func_op = build_prefix(context.module, staged, context.func_name)
        target = stage_design_point(func_op, staged.perm_map,
                                    staged.tile_sizes)
        # Three tile loops, then the one point loop (k by 2) inside them.
        band = perfect_loop_band(outermost_loops(func_op)[0])
        assert [loop.step for loop in band] == [1, 1, 2, 1]
        assert target is band[2]
        _, again = build_prefix(context.module, staged, context.func_name)
        pipelined = run_design_point_suffix(again, staged.perm_map,
                                            staged.tile_sizes, ii=2)
        assert staged_ir(again, pipelined)[1] == staged_ir(func_op, target)[1]
        assert pipelined_loops(again) == [pipelined]


# -- the plan, rule by rule -------------------------------------------------------------------


CUBE = ((4, 1), (6, 1), (8, 1))
IDENTITY = (0, 1, 2)


class TestPlanRules:
    def test_a_permutation_that_fits_is_applied(self):
        assert plan_design_point(CUBE, (2, 0, 1), ()) \
            == ((2, 0, 1), (1, 1, 1), False)

    @pytest.mark.parametrize("shape,perm", [
        (CUBE, (1, 0)),                            # not one entry per loop
        (CUBE, (0, 1, 2, 3)),
        (CUBE, (0, 0, 1)),                         # not a permutation
        (((4, 1), (None, 1), (8, 1)), (2, 0, 1)),  # a variable bound
        (CUBE, IDENTITY)])
    def test_any_other_is_the_identity(self, shape, perm):
        assert plan_design_point(shape, perm, ())[0] == IDENTITY

    def test_sizes_are_cut_and_padded_to_the_band(self):
        assert plan_design_point(CUBE, IDENTITY, (2,)) \
            == (IDENTITY, (2, 1, 1), True)
        assert plan_design_point(CUBE, IDENTITY, (1, 1, 1, 4)) \
            == (IDENTITY, (1, 1, 1), False)

    def test_sizes_are_lowered_to_divisors_of_the_permuted_trip_counts(self):
        # Loop 0 moves innermost: positions hold trips 6, 8, 4.
        assert plan_design_point(CUBE, (2, 0, 1), (4, 16, 3)) \
            == ((2, 0, 1), (3, 8, 2), True)
        assert plan_design_point(CUBE, IDENTITY, (4, 16, 3)) \
            == (IDENTITY, (4, 6, 2), True)

    @pytest.mark.parametrize("shape", [
        ((4, 1), (None, 1), (8, 1)), ((4, 1), (3, 2), (8, 1))])
    def test_tiling_is_all_or_nothing(self, shape):
        assert plan_design_point(shape, IDENTITY, (2, 1, 2)) \
            == (IDENTITY, (1, 1, 1), False)

    def test_which_knobs_the_plan_did_not_apply(self):
        def skipped(shape, perm, tiles):
            return knobs_not_applied(plan_design_point(shape, perm, tiles),
                                     perm, tiles)

        assert skipped(CUBE, (2, 0, 1), (2, 4, 4)) == (False, False)
        assert skipped(CUBE, IDENTITY, (1, 1, 1)) == (False, False)
        assert skipped(CUBE[:2], (2, 0, 1), (2, 3, 1)) == (True, False)
        assert skipped(CUBE[:2], IDENTITY, (2, 3, 4)) == (False, True)
        assert skipped(CUBE, IDENTITY, (3, 1, 1)) == (False, True)
        # A DNN node: four knobs a loop, three loops, nothing requested.
        assert skipped(CUBE, (0, 1, 2, 3), (1, 1, 1, 1)) == (False, False)

    def test_a_stepped_band_is_permuted_and_left_untiled(self):
        # The outer loop steps by 2: the permutation applies, the tiling
        # (which wants unit steps) is planned off, and the staging leaves
        # the permuted, untiled loops behind without asking tile_loop_band.
        module = compile_c(STRIDED, "strided")
        context = function_context(module, XC7Z020)
        digest, shape = post_prefix_band(module, point((1, 0), (2, 4)))
        assert shape == ((4, 2), (8, 1))
        assert plan_design_point(shape, (1, 0), (2, 4)) \
            == ((1, 0), (1, 1), False)

        func_op = module.clone().functions()[0]
        target = stage_design_point(func_op, (1, 0), (2, 4))
        assert band_shape(perfect_loop_band(outermost_loops(func_op)[0])) \
            == ((8, 1), (4, 2)) and target.step == 2
        with pytest.raises(PassError):
            tile_loop_band(perfect_loop_band(outermost_loops(func_op)[0]),
                           (2, 4))

        programs = identities(context)
        swapped = programs.of(point((1, 0), (1, 1)))
        assert programs.of(point((1, 0), (2, 4))) == swapped
        assert programs.of(point((0, 1), (2, 4))) \
            == programs.of(point((0, 1), (1, 1))) != swapped
        # ... and the runtime's answer for the refused tiling is the direct one.
        space = context.space
        refused = next(encoded for encoded in space.all_points()
                       if space.decode(encoded).perm_map == (1, 0)
                       and space.decode(encoded).tile_sizes == (2, 4))
        untiled = next(encoded for encoded in space.all_points()
                       if space.decode(encoded) == point(
                           (1, 0), (1, 1), ii=space.decode(refused).target_ii))
        classes = _ClassResults()
        classes.add(evaluate_encoded(context, untiled), swapped)
        assert_same_record(
            classes.resolve(swapped, space.decode(refused), refused),
            direct_record(context, refused))

    def test_sizes_that_all_lower_to_one_still_rebuild_the_band(self):
        # 2 does not divide 3: every size lowers to 1, tile_loop_band runs
        # anyway (as it always did) and builds new loops, which drops what
        # the old ones carried.  So "tiled to all ones" is not "untiled",
        # and the plan says which.
        module = compile_c(THREES, "threes")
        context = function_context(module, XC7Z020)
        _, shape = post_prefix_band(module, point((0, 1), (2, 2)))
        assert shape == ((3, 1), (3, 1))
        assert plan_design_point(shape, (0, 1), (2, 2)) \
            == ((0, 1), (1, 1), True)
        assert plan_design_point(shape, (0, 1), (1, 1)) \
            == ((0, 1), (1, 1), False)

        def staged(tiles, mark):
            func_op = module.clone().functions()[0]
            if mark:
                set_loop_directive(outermost_loops(func_op)[0],
                                   LoopDirective(flatten=True))
            for stage in (parent_stage_design_point, stage_design_point):
                copy = func_op.clone()
                yield staged_ir(copy, stage(copy, (0, 1), tiles))

        for mark in (False, True):
            tiled, tiled_by_plan = staged((2, 2), mark)
            untiled, untiled_by_plan = staged((1, 1), mark)
            assert tiled == tiled_by_plan and untiled == untiled_by_plan
            assert (tiled != untiled) == mark
        programs = identities(context)
        assert programs.of(point((0, 1), (2, 2))) \
            != programs.of(point((0, 1), (1, 1)))


# -- what the coordinator runs ----------------------------------------------------------------


@pytest.fixture
def eager_thread_switches():
    """Switch threads every few bytecodes, so passes really interleave."""
    import sys

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def run_threads(target, arguments) -> None:
    import threading

    threads = [threading.Thread(target=target, args=(argument,))
               for argument in arguments]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)


@pytest.mark.usefixtures("eager_thread_switches")
class TestCoordinatorWork:
    def test_prefix_builds_on_eight_threads_equal_a_serial_build(self):
        import threading

        module = kernel_context("syrk", 8).module
        points = [point((0, 1, 2), (1, 1, 1), lp=lp, rvb=rvb)
                  for lp in (False, True) for rvb in (False, True)]
        serial = [post_prefix_band(module, each) for each in points]
        assert len(set(serial)) == 4
        results: dict = {}
        barrier = threading.Barrier(8)

        def build(index):
            barrier.wait(timeout=60)
            results[index] = [post_prefix_band(module, points[(index + k) % 4])
                              for k in range(4)]

        run_threads(build, range(8))
        for index in range(8):
            assert results[index] == [serial[(index + k) % 4]
                                      for k in range(4)]

    def test_dumps_from_two_threads_are_numbered_without_gaps(self, tmp_path):
        import os
        import threading

        module = kernel_context("syrk", 4).module
        barrier = threading.Barrier(2)

        def build(lp):
            barrier.wait(timeout=60)
            for rvb in (False, True) * 3:
                build_prefix(module, point((0, 1, 2), (1, 1, 1), lp=lp,
                                           rvb=rvb))

        with dump_ir_after(str(tmp_path)) as dumper:
            run_threads(build, (False, True))
        names = sorted(os.listdir(tmp_path))
        # Two passes a build, twelve builds.
        assert [int(name[:4]) for name in names] == list(range(1, 25))
        assert sorted(dumper.paths) == [str(tmp_path / name) for name in names]
        assert all((tmp_path / name).read_text().rstrip().endswith("}")
                   for name in names)

    def test_one_digest_a_prefix_key_and_no_other_pass(self, gemm8, golden,
                                                       monkeypatch):
        digests = []
        monkeypatch.setattr(
            incremental, "ir_digest",
            lambda func_op: digests.append(ir_digest(func_op)) or digests[-1])
        runs = []
        run = PassManager.run
        monkeypatch.setattr(
            PassManager, "run",
            lambda self, op: runs.append(self.to_spec()) or run(self, op))
        result = explore(gemm8, jobs=2)
        assert document(result) == golden["clean"]
        prefixes = {record.point.prefix_key(): record.point
                    for record in result.records.values()}
        assert len(digests) == len(prefixes) <= 4
        # Evaluations ran in the pool: all this process ran is the builds.
        assert sorted(runs) == sorted(
            ["canonicalize"] * len(prefixes)
            + [dse_apply.design_point_prefix_pass(each).display_name
               for each in prefixes.values()])


# -- the runtime: unchanged goldens, one task per program ------------------------------------

#: Points of the gemm8 golden trajectory that stage to a program an earlier
#: point of the trajectory was evaluated for, under other knob values; the
#: first is a victim of ``select=2`` fault plans.
PROGRAM_ALIASES = [(1, 0, 3, 2, 0, 3, 2), (0, 0, 4, 2, 3, 2, 0),
                   (1, 0, 2, 2, 0, 3, 2)]


def record_dispatches(monkeypatch) -> list:
    """Every ``(kernel key, encoded)`` the serial backend evaluates."""
    dispatched = []
    evaluate = worker.evaluate_encoded

    def recording(context, encoded, snapshots=None, fault_key=""):
        dispatched.append((fault_key, tuple(encoded)))
        return evaluate(context, encoded, snapshots, fault_key)

    monkeypatch.setattr(worker, "evaluate_encoded", recording)
    return dispatched


def observed(run, jobs, **overrides) -> tuple:
    with obs.session() as session:
        result = run(jobs=jobs, **overrides)
    counters = dict(session.metrics.counters)
    return result, {name: counters.get(name, 0) for name in (
        "dse.points", "dse.evaluations", "dse.resolved.siblings",
        "dse.resolved.aliases", "estimate.calls")}, session


class TestGemmSweep:
    def test_aliases_are_resolved_not_dispatched(self, gemm8, golden,
                                                 monkeypatch):
        dispatched = record_dispatches(monkeypatch)
        result, (_, aliases) = resolved(lambda: explore(gemm8))
        assert document(result) == golden["clean"]
        assert not set(PROGRAM_ALIASES) & {encoded for _, encoded in dispatched}
        assert set(PROGRAM_ALIASES) <= set(result.records)
        assert len(dispatched) == 14 and aliases == 3
        # An alias carries its own knob values, never its representative's.
        for encoded in PROGRAM_ALIASES:
            assert result.records[encoded].point == result.space.decode(encoded)

    def test_the_dispatched_set_is_the_trajectorys(self, gemm8, golden,
                                                   tmp_path, monkeypatch):
        dispatched = record_dispatches(monkeypatch)
        explore(gemm8)
        plain = list(dispatched)
        del dispatched[:]
        assert document(explore(gemm8, tmp_path=tmp_path)) == golden["clean"]
        assert dispatched == plain
        assert_files_match(tmp_path, golden)

    def test_staging_is_counted_and_spanned_alike_at_any_jobs(self, gemm8):
        _, serial, _ = observed(lambda jobs: explore(gemm8, jobs=jobs), 1)
        result, pooled, session = observed(
            lambda jobs: explore(gemm8, jobs=jobs), 2)
        assert serial == pooled
        assert pooled["dse.evaluations"] < pooled["dse.points"]
        assert session.metrics.counters["dse.identity.seconds"] > 0
        spans = [span for spans in session.tracer.tracks().values()
                 for span in spans if span.name in ("dse.batch", "dse.identity")]
        # Close order: one identity span inside every batch, whatever it built.
        assert [span.name for span in spans] \
            == ["dse.identity", "dse.batch"] * (len(spans) // 2)
        # 17 knob settings, 14 programs, one build per prefix key.
        assert sum(span.args.get("staged", 0) for span in spans) \
            == len({record.point.prefix_key()
                    for record in result.records.values()}) == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_recoverable_faults_on_would_be_aliases(self, gemm8, golden,
                                                    tmp_path, jobs):
        import os

        plan = FaultPlan(mode="crash", select=2, times=1,
                         state_dir=str(tmp_path / "ledger"))
        result, (_, aliases) = resolved(
            lambda: explore(gemm8, tmp_path, jobs=jobs, faults=plan))
        assert document(result) == golden["clean"]
        assert_files_match(tmp_path, golden)
        for encoded in PROGRAM_ALIASES[:1]:
            assert plan.matches("kernel", encoded)
            assert os.path.getsize(plan._ledger_path("kernel", encoded)) == 2
        assert aliases <= 2

    def test_a_poisoned_would_be_alias_is_quarantined(self, gemm8, tmp_path):
        # No victim of the golden's ``poison:select=3`` plan stages to a
        # program another knob setting was evaluated for; ``select=5`` has
        # one.  The rule holds without a golden: every matched point of the
        # trajectory is quarantined, whatever program it stages to, and the
        # trajectory is the same at any ``jobs``.
        def poisoned(jobs):
            plan = FaultPlan(mode="poison", select=5,
                             state_dir=str(tmp_path / f"ledger{jobs}"))
            return plan, explore(gemm8, jobs=jobs, faults=plan,
                                 supervision=SupervisionPolicy(max_retries=1))

        plan, result = poisoned(1)
        assert document(poisoned(2)[1]) == document(result)
        quarantined = {record.encoded
                       for record in result.quarantined_records()}
        assert quarantined == {encoded for encoded in result.records
                               if plan.matches("kernel", encoded)}
        programs = identities(function_context(gemm8, XC7Z020))
        healthy = collections.defaultdict(set)
        would_be_aliases = 0
        for record in result.records.values():
            identity = programs.of(record.point)
            if record.ok:
                healthy[identity].add(knobs_of(record.point))
            elif healthy[identity] - {knobs_of(record.point)}:
                would_be_aliases += 1
        assert would_be_aliases == 1


class TestVgg16SliceSweep:
    """The vgg16 slice golden at every execution setting."""

    @pytest.fixture(scope="class")
    def expected(self):
        import json

        with open(dnn.GOLDEN, encoding="utf-8") as handle:
            return json.load(handle)

    def test_no_permutation_reaches_a_dnn_node(self, expected, monkeypatch):
        dispatched = record_dispatches(monkeypatch)
        result = dnn.sweep()
        assert masked_document(result) == expected
        # 28 points no cache served, 16 programs among them.
        assert result.evaluated_this_run == 28 and len(dispatched) == 16
        for key, encoded in dispatched:
            node = result.node_results[key]
            mates = [other for other, record in node.records.items()
                     if other != encoded and record.qor
                     == node.records[encoded].qor
                     and record.point.perm_map
                     != node.records[encoded].point.perm_map]
            assert not {(key, mate) for mate in mates} & set(dispatched)

    @pytest.mark.parametrize("overrides", [dict(jobs=2)], ids=["jobs2"])
    def test_every_execution_setting(self, expected, overrides):
        assert masked_document(dnn.sweep(**overrides)) == expected

    def test_every_visited_point_is_the_same_without_snapshots(self):
        for node in dnn.sweep().node_results.values():
            assert_snapshots_invisible(node)

    def test_counters_equal_at_any_jobs(self):
        _, serial, _ = observed(dnn.sweep, 1)
        _, pooled, _ = observed(dnn.sweep, 2)
        assert serial == pooled
        assert serial["dse.evaluations"] == serial["estimate.calls"] == 16
        assert serial["dse.resolved.siblings"] \
            + serial["dse.resolved.aliases"] == 12

    def test_resume_from_a_mid_sweep_checkpoint(self, expected, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        partial = dnn.sweep(checkpoint_dir=ckpt, checkpoint_every=1,
                            max_evaluations=3)
        assert partial.num_evaluations < 42
        resumed = dnn.sweep(jobs=2, checkpoint_dir=ckpt)
        assert masked_document(resumed) == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashing_would_be_aliases(self, expected, tmp_path, jobs,
                                       monkeypatch):
        import os

        dispatched = record_dispatches(monkeypatch)
        clean = dnn.sweep()
        resolved = [(key, encoded)
                    for key, node in clean.node_results.items()
                    if node.shared_with is None for encoded in node.records
                    if (key, encoded) not in set(dispatched)]
        monkeypatch.undo()
        plan = FaultPlan(mode="crash", select=2, times=1,
                         state_dir=str(tmp_path / "ledger"))
        victims = [item for item in resolved if plan.matches(*item)]
        assert victims
        faulty = dnn.sweep(jobs=jobs, faults=plan)
        assert masked_document(faulty) == expected
        for key, encoded in victims:
            assert os.path.getsize(plan._ledger_path(key, encoded)) == 2

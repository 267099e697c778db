"""The cleanup tail leaves nothing for the passes it dropped.

``CLEANUP_PIPELINE`` is ``canonicalize`` and one
``affine-store-forward,simplify-memref-access,cse`` round.  The nine-pass
tail before it (``cleanups.PARENT_TAIL``) also ran the passes
``cleanups.DROPPED`` names: ``-simplify-affine-if``, a second
store-forwarding round and a closing ``canonicalize``.  Here they run, in
that order, on one of two clones of a function the tail has cleaned, and
after each the clone's printed IR and the use order of every value
(``test_loop_transforms._ir_signature``) must be the other clone's: cloning
alone reorders uses, so both sides are clones.

Tier-1 checks every Table III kernel but gemm at n = 4 under every prefix
and tiling in {1, 2, 4} per band loop, with the band's innermost loop and
with the whole function pipelined, and with the same roots unrolled one
level at a time; the hand-built nests of the unrolling tests, as built and
unrolled below every loop both ways; ``dnn-loop-opt`` at graph level 3,
loop level 3 on the three models and at graph level 7, loop level 7 on
vgg16 (the deepest unrolling, one level at a time); the first 20
evaluations of a vgg16 ``dnn --dse`` sweep; and C sources through the
``estimate`` and ``dse`` paths.  ``-m exhaustive`` checks gemm's rows too;
every evaluation of the benchmark's kernel sweeps at n = 4 and 8 under five
DSE seeds; ``compile_dnn`` of the three models at the Table V
configurations, Fig. 8's loop level 5 and loop levels 1, 6 and 7; and
every evaluation of a ``dnn --dse`` sweep of each model.
``benchmarks/oracle_scores.py`` scores the tier-1 rows against seeded
defects, next to the other oracles of the unroller and the tail.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.dialects.affine_ops import AffineForOp, loop_band_from, outermost_loops
from repro.dse.apply import CLEANUP_PIPELINE, apply_design_point
from repro.dse.space import KernelDesignSpace
from repro.estimation import VU9P_SLR, XC7Z020
from repro.frontend.models import build_model
from repro.ir.pass_manager import PassError
from repro.ir.pass_registry import build_pipeline_cached
from repro.pipeline import (
    compile_c,
    compile_dnn,
    compile_kernel,
    explore_dnn,
    explore_kernel,
    explore_module_kernels,
)
from repro.transforms import canonicalize
from repro.transforms.composite import run_design_point_prefix, stage_design_point
from repro.transforms.directive.array_partition import ArrayPartitionPass
from repro.transforms.directive.pipelining import pipeline_function, pipeline_loop
from repro.transforms.loop.loop_unroll import fully_unroll_nested

from cleanups import DROPPED, LIGHT, TABLE3_ROWS
from test_evaluation_golden import BUDGET, table3_module
from test_loop_transforms import (
    HAND_BUILT_NESTS,
    _ir_signature,
    _unroll_one_at_a_time_judging,
)

MODELS = ("vgg16", "resnet18", "mobilenet")
#: ``(graph_level, loop_level)`` of Table V's configurations, graph level 7,
#: Fig. 8's loop level 5 configurations, and the shallowest and deepest
#: loop levels (at 6 and 7 ``dnn-loop-opt`` unrolls several inner loops one
#: level at a time).
COMPILE_DNN_LEVELS = ((3, 3), (4, 4), (5, 4), (7, 2),
                      (0, 5), (1, 5), (3, 5), (5, 5),
                      (3, 1), (3, 6), (3, 7), (7, 1), (7, 6), (7, 7))

#: C sources a user may hand ``estimate`` / ``dse``: a store a later one
#: overwrites with a value computed for it alone, scalars kept in one-element
#: buffers, a buffer only ever written, and a triangular nest.
C_SOURCES = {
    "overwritten-store": """
void blend(float A[8][8], float v[8], float w[8]) {
  for (int i = 0; i < 8; i++) {
    float s = v[i];
    for (int j = 0; j < 8; j++) {
      A[i][j] = A[i][j] * s;
    }
    v[i] = v[i] + v[i];
    w[i] = s + 1.0;
    v[i] = s * 2.0;
  }
}""",
    "write-only-buffer": """
void mix(float A[8][8], float B[8][8], float y[8], float z[8]) {
  for (int i = 0; i < 8; i++) {
    float acc = 0.0;
    float tmp[8];
    for (int j = 0; j < 8; j++) {
      acc += A[i][j] * B[j][i];
      tmp[j] = A[i][j] + 1.0;
    }
    y[i] = acc;
    z[i] = y[i] * 2.0;
    y[i] = acc + A[i][i];
  }
}""",
    "triangular": """
void tri(float L[8][8], float x[8], float b[8]) {
  for (int i = 0; i < 8; i++) {
    x[i] = b[i];
    for (int j = 0; j < i; j++) {
      x[i] = x[i] - L[i][j] * x[j];
    }
    x[i] = x[i] / L[i][i];
  }
}""",
}


def work_left(func_op):
    """The first of :data:`DROPPED` that rewrites a clone of ``func_op``,
    run after the ones before it, or None when none does."""
    ours, theirs = func_op.clone(), func_op.clone()
    expected = _ir_signature(theirs)
    for name in DROPPED:
        build_pipeline_cached(name).run(ours)
        if _ir_signature(ours) != expected:
            return name
    return None


def staged_programs(kernel, size=4):
    """``(label, module, roots)`` of ``kernel`` at ``size`` under every
    prefix and every tiling in {1, 2, 4} per band loop; ``roots`` are the
    walk positions of the band's innermost loop and of the function (0)."""
    base = compile_kernel(kernel, size)
    for perfectize, rvb in itertools.product((False, True), repeat=2):
        prefixed = base.clone()
        func_op = prefixed.functions()[0]
        canonicalize(func_op)
        run_design_point_prefix(func_op, perfectize, rvb)
        depth = len(loop_band_from(outermost_loops(func_op)[0]))
        for tiles in itertools.product((1, 2, 4), repeat=depth):
            staged = prefixed.clone()
            func_op = staged.functions()[0]
            target = stage_design_point(func_op, tuple(range(depth)), tiles)
            position = next(number for number, op
                            in enumerate(func_op.walk()) if op is target)
            yield (perfectize, rvb, tiles), staged, (position, 0)


def pipelined_programs(kernel, size=4):
    """``(label, module)`` of every staged program with the band's
    innermost loop or the whole function pipelined; a program pipelining
    cannot legalize (a variable bound left) is not one."""
    for label, staged, roots in staged_programs(kernel, size):
        for whole in (False, True):
            module = staged.clone()
            func_op = module.functions()[0]
            try:
                if whole:
                    pipeline_function(func_op)
                else:
                    pipeline_loop(list(func_op.walk())[roots[0]])
            except PassError:
                continue
            yield (*label, whole), module


def unrolled_programs(module, roots, unroll):
    """``(root, module)`` of ``module`` with the nest below each of
    ``roots`` (walk positions) unrolled by ``unroll``; a root a variable
    bound stops is left out."""
    for position in roots:
        unrolled = module.clone()
        root = list(unrolled.functions()[0].walk())[position]
        try:
            unroll(root)
        except PassError:
            continue
        yield position, unrolled


def census(programs, tail=CLEANUP_PIPELINE):
    """``(label, dropped pass that had work)`` of every program ``tail``
    left work in, and the number of programs."""
    left, count = [], 0
    for label, module in programs:
        func_op = module.functions()[0]
        build_pipeline_cached(tail).run(func_op)
        name = work_left(func_op)
        if name is not None:
            left.append((label, name))
        count += 1
    return left, count


class TailChecks:
    """Checks, within a test, every function a flow hands to
    ``array-partition`` (the pass after the cleanup tail in every flow),
    up to ``limit`` of them."""

    def __init__(self, monkeypatch, limit=None):
        self.limit = limit
        self.checked = 0
        self.left: list = []
        run = ArrayPartitionPass.run

        def checked(pass_, func_op):
            if self.limit is None or self.checked < self.limit:
                self.checked += 1
                name = work_left(func_op)
                if name is not None:
                    self.left.append((func_op.get_attr("sym_name"), name))
            return run(pass_, func_op)

        monkeypatch.setattr(ArrayPartitionPass, "run", checked)


class TestThePipelinedKernels:
    @pytest.mark.parametrize("kernel", TABLE3_ROWS)
    def test_every_prefix_tiling_and_pipelined_root(self, kernel):
        programs = list(pipelined_programs(kernel))
        assert {label[-1] for label, _ in programs} == {False, True}
        left, count = census(programs)
        assert count and left == []

    @pytest.mark.parametrize("kernel", TABLE3_ROWS)
    def test_every_root_unrolled_one_level_at_a_time(self, kernel):
        # What unroll_towards_factor does to the inner loops it fully
        # unrolls, carried down the whole nest: no copy is merged.
        left, count = census(
            ((label, position), unrolled)
            for label, staged, roots in staged_programs(kernel)
            for position, unrolled in unrolled_programs(
                staged, roots, _unroll_one_at_a_time_judging))
        assert count and left == []

    @pytest.mark.exhaustive
    def test_a_tail_that_leaves_work_fails_the_census(self):
        left, _ = census(pipelined_programs("gemm"), tail=LIGHT)
        assert {name for _, name in left} \
            & {"affine-store-forward", "simplify-memref-access"}


class TestTheHandBuiltNests:
    @pytest.mark.parametrize("name", sorted(HAND_BUILT_NESTS))
    def test_as_built_and_unrolled_below_every_loop(self, name):
        module = HAND_BUILT_NESTS[name]()
        func_op = module.functions()[0]
        roots = [0] + [number for number, op in enumerate(func_op.walk())
                       if isinstance(op, AffineForOp)]
        programs = [("as built", module.clone())] + [
            ((unroll.__name__, position), unrolled)
            for unroll in (fully_unroll_nested, _unroll_one_at_a_time_judging)
            for position, unrolled in unrolled_programs(module, roots, unroll)]
        left, count = census(programs)
        assert count == 1 + 2 * len(roots) and left == []


class TestTheModelFlows:
    @pytest.mark.parametrize("model", MODELS)
    def test_dnn_loop_opt_at_g3_l3(self, model, monkeypatch):
        checks = TailChecks(monkeypatch)
        compile_dnn(model, graph_level=3, loop_level=3, directive_level=True)
        assert checks.checked and checks.left == []

    def test_dnn_loop_opt_at_g7_l7_on_vgg16(self, monkeypatch):
        checks = TailChecks(monkeypatch)
        compile_dnn("vgg16", graph_level=7, loop_level=7, directive_level=True)
        assert checks.checked and checks.left == []

    def test_the_first_vgg16_dse_evaluations(self, monkeypatch):
        checks = TailChecks(monkeypatch, limit=20)
        explore_dnn("vgg16", VU9P_SLR, graph_level=7, jobs=1, seed=2022)
        assert checks.checked == 20 and checks.left == []


class TestCSources:
    @pytest.mark.parametrize("name", sorted(C_SOURCES))
    def test_estimate_design_points(self, name, monkeypatch):
        module = compile_c(C_SOURCES[name])
        space = KernelDesignSpace.from_function(module.functions()[0])
        rng = random.Random(7)
        checks = TailChecks(monkeypatch)
        for _ in range(12):
            apply_design_point(module, space.decode(space.random_point(rng)),
                               XC7Z020)
        assert checks.checked == 12 and checks.left == []

    @pytest.mark.parametrize("name", sorted(C_SOURCES))
    def test_dse(self, name, monkeypatch):
        checks = TailChecks(monkeypatch)
        explore_kernel(compile_c(C_SOURCES[name]), XC7Z020, jobs=1, seed=2022,
                       num_samples=8, max_iterations=8)
        assert checks.checked and checks.left == []


@pytest.mark.exhaustive
class TestEveryServedFlow:
    @pytest.mark.parametrize("seed", [2022, 7, 11, 1, 2])
    @pytest.mark.parametrize("size", [4, 8])
    def test_the_benchmark_kernel_sweeps(self, size, seed, monkeypatch):
        checks = TailChecks(monkeypatch)
        explore_module_kernels(table3_module(size), XC7Z020, jobs=1,
                               seed=seed, **BUDGET)
        assert checks.checked and checks.left == []

    @pytest.mark.parametrize("model", MODELS)
    def test_compile_dnn_configurations(self, model, monkeypatch):
        module = build_model(model)
        checks = TailChecks(monkeypatch)
        for graph_level, loop_level in COMPILE_DNN_LEVELS:
            compile_dnn(model, graph_level=graph_level, loop_level=loop_level,
                        directive_level=True, model_module=module)
        assert checks.checked and checks.left == []

    @pytest.mark.parametrize("model", MODELS)
    def test_every_dse_evaluation(self, model, monkeypatch):
        checks = TailChecks(monkeypatch)
        explore_dnn(model, VU9P_SLR, graph_level=7, jobs=1, seed=2022)
        assert checks.checked and checks.left == []

"""Micro-benchmark of the IR hot paths the intrusive op list optimizes.

The DSE evaluates thousands of design points, and unroll-heavy points
produce blocks with thousands of straight-line operations; every block
mutation and ordering query inside that loop is a hot path.  This benchmark
measures the scaling of those primitives on the intrusive doubly-linked
Block representation:

* ``append``        — N appends building a block,
* ``mid_insert``    — N ``insert_before`` at a fixed mid-block anchor,
* ``mid_remove``    — N ``remove`` calls at the middle of the block,
* ``splice``        — one ``insert_all_after`` of N ops,
* ``ordering``      — N ``is_before_in_block`` queries on random pairs,
* ``move``          — N ``move_before``/``move_after`` hops,
* ``defined_above`` — N ``is_defined_above`` visibility queries from nested
  blocks scattered through one large block (order-key dominance walk,
  O(depth) per query regardless of the enclosing block's size),
* ``verify_nested`` — one ``verify()`` of a region-heavy block (N ops, a
  nested single-op block every 8 ops): per-operand order-key dominance;
  the seed's availability-set verifier copied the visible set once per
  nested block, i.e. quadratic on exactly this shape,

* ``rewrite_storm``  — one worklist-driver canonicalize of an N-op constant
  chain (every op folds, then everything is DCE'd): the constant-folding
  storm the order-keyed deduplicating worklist keeps linear — each op is
  visited O(1) times, pinned via the driver's ``visit_counts``,
* ``pattern_dispatch`` — one worklist-driver run over N ops spread across
  64 distinct op names against a 64-bucket pattern set: per-op dispatch is
  one dict lookup, independent of the pattern count,

and, as the asymptotic baseline, ``list_mid_insert`` — the same mid-block
insertion against a plain Python list (the seed representation): O(n) per
insert, visibly quadratic at these sizes.

Usage::

    python benchmarks/bench_ir_hotpaths.py                # full curve
    python benchmarks/bench_ir_hotpaths.py --smoke        # CI gate (~seconds)
    python benchmarks/bench_ir_hotpaths.py --json out.json
    python benchmarks/bench_ir_hotpaths.py --gemm-dse 8 12 16  # end-to-end

``--smoke`` exits non-zero when any linked-list scenario scales worse than
near-linear (per-op cost growing more than ``--max-growth`` across an 8x
size sweep — a quadratic regression would grow ~8x).  ``--gemm-dse`` also
times one full DSE evaluation of a *fully unrolled* gemm per listed size
(clone + transform pipeline + QoR estimate, the paper's Fig. 7 block-size
extreme) and records the wall-clock under ``"gemm_dse_seconds"`` in the
``--json`` payload — the before/after ledger of the constant-factor work.
``--prefix-reuse`` (implied by ``--smoke``) A/Bs incremental evaluation —
a fixed sweep of suffix-varying design points evaluated from scratch vs
through a prefix-snapshot cache — prints the wall-clock ratio, and the smoke
gate checks the counts: a fresh cache misses exactly once and hits for every
other point of the sweep.
``--work-counts`` (implied by ``--smoke``) runs one fully unrolled gemm
evaluation through ``evaluate_encoded`` and counts, from outside, the work
an evaluation must do once: ``Operation.clone`` calls of the suffix against
the ops it leaves, first-``canonicalize`` visits that rewrote nothing
against ops, ``access_expressions`` calls against distinct accesses over
partitioning plus estimation, and cyclic collections; then the heaviest
evaluation of the kernel sweep (trmm, perfectized, variable bounds removed,
tiles 8 x 8 x 1), where the suffix clones against the ops it leaves and
``-simplify-affine-if`` must find nothing to rewrite: unrolling decided
every guard as it copied it.  Two evaluations (the fully
unrolled one, and one that leaves three loops around the body) add
what the block scans read: ``Operation.walk`` items yielded while a scan
pass runs against the ops at its entry, and address keys computed against
accesses.  First of all, before any other IR is built, it stages, lowers and
splits vgg16 at graph level 7 the way a whole-model sweep does, counting
the ``AffineMap`` constructions, the default layout maps built and the
``Operation.clone`` calls of the split (none: nodes are moved).  Last, it
sweeps vgg16 twice against one persistent estimate cache and counts what
the warm sweep, which evaluates nothing, still does: RNG state reads and
seedings, checkpoint saves, model frontier points built and neighbour
lists, plus the platform-hash payloads of both sweeps.  And it sweeps, cold
and inline, vgg16 at graph level 7 and the six Table III kernels at n = 4,
counting what an evaluation's fixed cost is made of: post-prefix builds per
(kernel, prefix key), rewrite dispatch tables built per pattern set the
drivers ran, and estimator block visits per walk of the estimated function
(a multi-II call walks once); it also reports, ungated, the least-squares
fit of evaluation time on the final op count (ms + us/op) of an untimed-
wrapper run of the same sweeps.  The counts do not depend on the machine;
the smoke gate fails on them, not on a clock.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import sys
import time

from repro.ir.block import Block
from repro.ir.operation import Operation

FULL_SIZES = (1000, 2000, 4000, 8000, 16000)
SMOKE_SIZES = (500, 1000, 2000, 4000)


def _ops(count: int) -> list[Operation]:
    return [Operation("bench.op") for _ in range(count)]


def _filled_block(count: int) -> Block:
    block = Block()
    for op in _ops(count):
        block.append(op)
    return block


# -- scenarios (each returns elapsed seconds for `size` primitive calls) ------------------


def scenario_append(size: int) -> float:
    ops = _ops(size)
    block = Block()
    started = time.perf_counter()
    for op in ops:
        block.append(op)
    return time.perf_counter() - started


def scenario_mid_insert(size: int) -> float:
    block = _filled_block(size)
    anchor = block.operations[size // 2]
    ops = _ops(size)
    started = time.perf_counter()
    for op in ops:
        block.insert_before(anchor, op)
    return time.perf_counter() - started


def scenario_mid_remove(size: int) -> float:
    block = _filled_block(2 * size)
    # Collect the middle ops first so the timed loop is pure `remove`.
    middle = list(block.operations)[size // 2: size // 2 + size]
    started = time.perf_counter()
    for op in middle:
        block.remove(op)
    return time.perf_counter() - started


def scenario_splice(size: int) -> float:
    block = _filled_block(size)
    anchor = block.operations[size // 2]
    ops = _ops(size)
    started = time.perf_counter()
    block.insert_all_after(anchor, ops)
    return time.perf_counter() - started


def scenario_ordering(size: int) -> float:
    block = _filled_block(size)
    ops = list(block.operations)
    rng = random.Random(2022)
    pairs = [(ops[rng.randrange(size)], ops[rng.randrange(size)])
             for _ in range(size)]
    started = time.perf_counter()
    for a, b in pairs:
        a.is_before_in_block(b)
    return time.perf_counter() - started


def scenario_move(size: int) -> float:
    block = _filled_block(size)
    ops = list(block.operations)
    first, last = ops[0], ops[-1]
    rng = random.Random(7)
    movers = [ops[rng.randrange(1, size - 1)] for _ in range(size)]
    started = time.perf_counter()
    for i, op in enumerate(movers):
        if i % 2:
            op.move_before(last)
        else:
            op.move_after(first)
    return time.perf_counter() - started


def _nested_block_module(size: int, nest_every: int = 8):
    """One big block of chained ops; every ``nest_every``-th op carries a
    region whose block uses a value from the enclosing block."""
    from repro.ir.value import Value

    root = Operation("bench.root", num_regions=1)
    block = root.regions[0].add_block(Block())
    previous: Value = None
    inner_blocks = []
    for index in range(size):
        operands = (previous,) if previous is not None else ()
        if index % nest_every == nest_every - 1:
            op = Operation("bench.wrap", operands=operands,
                           result_types=(None,), num_regions=1)
            inner = op.regions[0].add_block(Block())
            inner.append(Operation("bench.use", operands=operands))
            inner_blocks.append(inner)
        else:
            op = Operation("bench.op", operands=operands, result_types=(None,))
        block.append(op)
        previous = op.results[0]
    return root, block, inner_blocks


def scenario_defined_above(size: int) -> float:
    from repro.ir.traversal import is_defined_above

    _, block, inner_blocks = _nested_block_module(size)
    anchors = list(block.operations)
    rng = random.Random(11)
    queries = [(anchors[rng.randrange(size)].results[0],
                inner_blocks[rng.randrange(len(inner_blocks))])
               for _ in range(size)]
    started = time.perf_counter()
    for value, inner in queries:
        is_defined_above(value, inner)
    return time.perf_counter() - started


def scenario_verify_nested(size: int) -> float:
    from repro.ir.verifier import verify

    root, _, _ = _nested_block_module(size)
    started = time.perf_counter()
    verify(root, require_terminators=False)
    return time.perf_counter() - started


def scenario_rewrite_storm(size: int) -> float:
    """Worklist canonicalize of a fully foldable N-op constant chain.

    Every op folds to a constant and the whole chain is dead — the revisit
    storm that made the pre-bucketed driver superlinear.  The deduplicating
    program-ordered worklist visits each op a bounded number of times, so
    per-op cost stays flat; the gate fails on a revisit-storm regression.
    """
    from repro.dialects import arith
    from repro.ir.rewrite import GreedyRewriteDriver
    from repro.ir.types import index
    from repro.transforms.cleanup.canonicalize import canonicalization_patterns

    root = Operation("bench.root", num_regions=1)
    block = root.regions[0].add_block(Block())
    one = arith.ConstantOp(1, index)
    block.append(one)
    previous = one.result()
    for _ in range(size):
        op = arith.AddIOp(previous, one.result())
        block.append(op)
        previous = op.result()
    driver = GreedyRewriteDriver(canonicalization_patterns(), max_iterations=64)
    started = time.perf_counter()
    driver.rewrite(root)
    return time.perf_counter() - started


def scenario_pattern_dispatch(size: int) -> float:
    """One worklist run over N ops of 64 distinct names vs. 64+2 patterns.

    Bucketed dispatch makes matching an op a single dict lookup; per-op
    cost must not grow with the block (nor, implicitly, the pattern count).
    """
    from repro.ir.rewrite import GreedyRewriteDriver, RewritePattern

    num_names = 64

    class Never(RewritePattern):
        def __init__(self, op_name):
            self.op_name = op_name

        def match_and_rewrite(self, op, rewriter) -> bool:
            return False

    patterns = [Never(f"bench.op{i}") for i in range(num_names)]
    patterns += [Never(None), Never(None)]  # wildcards merged into every bucket
    root = Operation("bench.root", num_regions=1)
    block = root.regions[0].add_block(Block())
    for i in range(size):
        block.append(Operation(f"bench.op{i % num_names}"))
    driver = GreedyRewriteDriver(patterns)
    started = time.perf_counter()
    driver.rewrite(root)
    return time.perf_counter() - started


def scenario_list_mid_insert(size: int) -> float:
    """The seed representation's mid-block insert: a plain list splice."""
    data = list(range(size))
    started = time.perf_counter()
    for i in range(size):
        data.insert(size // 2, i)
    return time.perf_counter() - started


def measure_prefix_reuse(size: int = 8, repeats: int = 3) -> dict:
    """A/B of incremental evaluation: one prefix, many suffix-varying points.

    Evaluates a fixed sweep of design points that all share the
    ``perfectize=True, rvb=True`` prefix — first from scratch
    (``snapshots=None``, what one-off callers such as ``materialize`` run),
    then through a :class:`PrefixSnapshotCache`
    (one prefix build, then checkout clones), with the precomputed IR-digest
    hint the DSE runtime ships in its kernel contexts.  The sweep leans on
    *light* suffixes (small tiles), where the shared prefix is a meaningful
    share of each evaluation — exactly the points a frontier-evolution sweep
    evaluates by the hundreds.  Best-of-``repeats`` wall-clock per mode is
    printed; what the smoke gate checks is the counts of each fresh cache
    (one miss, a hit for every other point), which no machine state moves.
    """
    from repro.dse.apply import apply_design_point
    from repro.dse.incremental import PrefixSnapshotCache
    from repro.dse.space import KernelDesignPoint, ir_digest
    from repro.pipeline import compile_kernel

    module = compile_kernel("gemm", size)
    digest = ir_digest(module.functions()[0])
    points = [KernelDesignPoint(True, True, perm, tiles, ii)
              for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
              for tiles in ((1, 1, 1), (2, 1, 1))
              for ii in (1, 2, 4)]

    def from_scratch():
        for point in points:
            apply_design_point(module, point)

    hits = misses = 0

    def incremental_run():
        nonlocal hits, misses
        snapshots = PrefixSnapshotCache()
        for point in points:
            apply_design_point(module, point, snapshots=snapshots,
                               digest=digest)
        hits, misses = snapshots.hits, snapshots.misses

    # Interleave the two modes and keep the best of each: on a noisy box,
    # back-to-back pairs see the same machine state, so drift hits both
    # sides instead of skewing the ratio.
    baseline = snapshotted = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        from_scratch()
        baseline = min(baseline, time.perf_counter() - started)
        started = time.perf_counter()
        incremental_run()
        snapshotted = min(snapshotted, time.perf_counter() - started)
    speedup = baseline / snapshotted if snapshotted > 0 else float("inf")
    print(f"prefix_reuse: {len(points)} gemm-{size} evaluations, "
          f"from-scratch {baseline * 1000:.1f}ms vs incremental "
          f"{snapshotted * 1000:.1f}ms ({speedup:.2f}x; {hits} snapshot "
          f"hits, {misses} misses)")
    return {"points": len(points), "baseline_seconds": baseline,
            "incremental_seconds": snapshotted, "speedup": speedup,
            "hits": hits, "misses": misses}


#: Smoke-gate bounds on :func:`measure_work_counts` and
#: :func:`measure_scan_counts` (``count / base``).
WORK_COUNT_LIMITS = {
    "suffix_clones_per_op": 1.0,
    "first_canonicalize_wasted_visits_per_op": 0.15,
    # The unrolled copies the cleanup's first round deleted untouched: on
    # the fully unrolled gemm 4^3, 180 dead ones the first canonicalize
    # erased (84 constants, and 48 loads and 48 products that fed only the
    # k == 0 branch), and 188 constants the first cse merged.
    "first_round_deleted_copies": 0,
    "access_derivations_per_access": 1.0,
    "collections_per_evaluation": 1.0,
    "trmm.suffix_clones_per_op": 1.0,
    # What -simplify-affine-if decides on trmm after the cleanup tail, which
    # no longer runs it: unrolling judges every guard it copies.
    "trmm.simplify_affine_if_rewrites": 0,
    # One fresh vgg16 staging, lowering and split (measure_model_counts):
    # 1 138 maps and 298 layouts while every constant bound and default
    # layout was built anew, 842 clones while the 50 nodes were copied out,
    # 244 maps while the 22 repeated nodes were lowered too.  A repeated
    # node's module is a relabelled clone of its class's lowered function:
    # one clone per op of it, none of a representative (they are moved).
    "model.affine_maps": 164,
    "model.default_layouts": 31,
    "model.split_clones_per_member_op": 1.0,
    # A warm vgg16 sweep against the cache its cold run filled
    # (measure_warm_sweep_counts), 50 nodes, while every node replayed its
    # checkpoint rhythm: 224 RNG state reads (168 of them a Ctrl-C boundary
    # after a cache-served batch), 100 seedings (half from os.urandom for
    # setstate to overwrite), 6 checkpoint saves, 1 032 model frontier points
    # built for a 49-point frontier (and 191 neighbour lists, not gated);
    # 200 platform-hash payloads over the cold and the warm sweep.  A
    # checkpoint holds records only, so no sweep reads its generator's
    # state at all, cached or not.
    "warm.rng_state_reads_per_node": 0.0,
    "warm.rng_seeds_per_node": 1.0,
    "warm.platform_hash_payloads_per_platform": 1.0,
    "warm.checkpoint_saves": 0,
    "warm.frontier_points_per_point_kept": 1.0,
    # The cold vgg16 sweep plus the n = 4 Table III sweep, inline
    # (measure_cold_sweep_counts), while program identity and the inline
    # backend each built the post-prefix IR, every canonicalize and
    # simplify-affine-if run grouped its patterns anew and a multi-II
    # estimate walked the function once per target II: 2.0 builds per
    # (kernel, prefix key) (vgg16: 56 for 28, kernels: 26 for 13), one
    # dispatch build per driver (281 on vgg16, 221 on the kernels), 4.0
    # block visits per walk on vgg16 (764 for 191) and 3.7 on the kernels
    # (549 for 147).
    "cold.prefix_builds_per_key": 1.0,
    "cold.dispatch_builds_per_pattern_set": 1.0,
    "cold.block_visits_per_walk": 1.0,
}

#: Tile size of every loop at the two points :func:`measure_scan_counts`
#: evaluates (None: the trip count, i.e. no loop left).
SCAN_POINTS = {"unrolled": None, "three_loops": 1}
#: ``Operation.walk`` items a block scan may take per op, by point.  A scan
#: walks a region op only while it holds state to forget: never on the flat
#: body, and with loops left only the ``affine.if`` that follows a load in
#: the innermost body (a nested walk taken at every level costs 3 and more).
#: ``cse`` holds no such state.
SCAN_WALK_LIMITS = {
    "unrolled": {"affine-store-forward": 0.0, "simplify-memref-access": 0.0,
                 "cse": 0.0},
    "three_loops": {"affine-store-forward": 1.0, "simplify-memref-access": 1.0,
                    "cse": 0.0},
}
#: The scans that compute address keys: at most one per access.
SCAN_KEY_LIMIT = {"affine-store-forward": 1.0, "simplify-memref-access": 1.0}
WORK_COUNT_LIMITS.update({
    f"walk_items_per_op.{name}.{point}": limit
    for point, limits in SCAN_WALK_LIMITS.items()
    for name, limit in limits.items()})
WORK_COUNT_LIMITS.update({
    f"address_keys_per_access.{name}.{point}": limit
    for point in SCAN_POINTS for name, limit in SCAN_KEY_LIMIT.items()})


def _kernel_evaluation(kernel: str, size: int):
    """The context ``evaluate_encoded`` takes for ``kernel`` at ``size``,
    and ``encode(tiles, rvb=False)``: the perfectized point in the given
    loop order with those tile sizes (None: its trip count, per loop or for
    all of them)."""
    from repro.dse.runtime.worker import KernelContext
    from repro.dse.space import KernelDesignSpace
    from repro.estimation import XC7Z020
    from repro.pipeline import compile_kernel

    module = compile_kernel(kernel, size)
    space = KernelDesignSpace.from_function(module.functions()[0])
    depth = len(space.tile_options)

    def encode(tiles, rvb=False):
        tiles = tuple(tiles) if isinstance(tiles, tuple) else (tiles,) * depth
        encoded = [0] * space.num_dimensions
        encoded[0] = space.lp_options.index(True)
        encoded[1] = space.rvb_options.index(rvb)
        encoded[2] = space.perm_options.index(tuple(range(depth)))
        encoded[3:space.ii_dimension] = [
            len(options) - 1 if tile is None else options.index(tile)
            for options, tile in zip(space.tile_options, tiles)]
        assert space.decode(encoded).tile_sizes \
            == tuple(tile or size for tile in tiles)
        return tuple(encoded)

    context = KernelContext(module=module, func_name=None, platform=XC7Z020,
                            space=space)
    return context, encode


def _counted_evaluation(context, encoded) -> dict:
    """Work counts of one ``evaluate_encoded(context, encoded)``, taken from
    outside: the counters are wrappers this function installs around
    ``Operation.clone``, the suffix pass, the rewrite driver and
    ``access_expressions`` and removes again.  A wrapper around
    ``array-partition``, the pass after the cleanup tail, keeps a copy of
    the function the tail left, for ``-simplify-affine-if`` once the
    evaluation is over."""
    from repro.dialects import affine_ops
    from repro.dse.runtime.worker import evaluate_encoded
    from repro.estimation import estimator as estimator_module
    from repro.ir.rewrite import GreedyRewriteDriver
    from repro.transforms.cleanup import simplify_affine_ifs
    from repro.transforms.cleanup.cse import CSEPass
    from repro.transforms.composite import DesignPointSuffixPass
    from repro.transforms.directive.array_partition import ArrayPartitionPass

    counts = {"suffix_clones": 0, "suffix_ops": 0, "canonicalize_visits": None,
              "canonicalize_rewrites": 0, "canonicalize_ops": 0,
              "canonicalize_dead_at_start": 0, "cse_merged_constants": None,
              "collections": 0}
    derivations: dict = {}
    in_suffix = False

    clone, suffix_run = Operation.clone, DesignPointSuffixPass.run
    rewrite, derive = GreedyRewriteDriver.rewrite, affine_ops.access_expressions
    cse_run = CSEPass.run
    partition_run = ArrayPartitionPass.run
    after_tail = []

    def counted_clone(op, value_map=None):
        counts["suffix_clones"] += in_suffix
        return clone(op, value_map)

    def counted_suffix(pass_, func_op):
        nonlocal in_suffix
        in_suffix = True
        try:
            suffix_run(pass_, func_op)
        finally:
            in_suffix = False
        counts["suffix_ops"] = sum(1 for _ in func_op.walk()) - 1

    def counted_rewrite(driver, root):
        # The first op-pattern drive after the suffix is the canonicalize
        # every cleanup pipeline starts with.
        first = counts["suffix_ops"] and counts["canonicalize_visits"] is None \
            and driver.op_patterns
        if first:
            counts["canonicalize_ops"] = sum(1 for _ in root.walk()) - 1
            counts["canonicalize_dead_at_start"] = _dead_ops(root)
        changed = rewrite(driver, root)
        if first:
            counts["canonicalize_visits"] = sum(driver.visit_counts.values())
            counts["canonicalize_rewrites"] = sum(
                hits for hits, _ in driver.bucket_stats.values())
        return changed

    def counted_cse(pass_, func_op):
        # The first cse after the suffix: what it merges of the constants
        # and applies is what unrolling copied once too often.
        first = counts["suffix_ops"] and counts["cse_merged_constants"] is None
        if first:
            before = _constants_and_applies(func_op)
        cse_run(pass_, func_op)
        if first:
            counts["cse_merged_constants"] = \
                before - _constants_and_applies(func_op)

    def noted_partition(pass_, func_op):
        after_tail.append(func_op.clone())
        partition_run(pass_, func_op)

    def counted_derive(op, dim_map, *derived):
        derivations[id(op)] = derivations.get(id(op), 0) + 1
        return derive(op, dim_map, *derived)

    def on_collection(phase, info):
        counts["collections"] += phase == "start"

    evaluate_encoded(context, encoded)  # warm lazy caches first
    with contextlib.ExitStack() as stack:
        def patch(owner, name, value):
            stack.callback(setattr, owner, name, getattr(owner, name))
            setattr(owner, name, value)

        patch(Operation, "clone", counted_clone)
        patch(DesignPointSuffixPass, "run", counted_suffix)
        patch(GreedyRewriteDriver, "rewrite", counted_rewrite)
        patch(CSEPass, "run", counted_cse)
        patch(ArrayPartitionPass, "run", noted_partition)
        patch(affine_ops, "access_expressions", counted_derive)
        patch(estimator_module, "access_expressions", counted_derive)
        gc.callbacks.append(on_collection)
        stack.callback(gc.callbacks.remove, on_collection)
        record = evaluate_encoded(context, encoded)
    assert record.ok
    (left,) = after_tail
    counts["simplify_affine_if_rewrites"] = simplify_affine_ifs(left)

    counts["access_derivations"] = sum(derivations.values())
    counts["accesses"] = len(derivations)
    counts["suffix_clones_per_op"] = \
        counts["suffix_clones"] / max(1, counts["suffix_ops"])
    return counts


def _dead_ops(root) -> int:
    """The ops under ``root`` that ``canonicalize`` erases as dead: no side
    effect, no region, and no use but by such ops."""
    from repro.ir.operation import SIDE_EFFECT_OPS

    dead: set = set()
    for op in reversed(list(root.walk())):
        if not op.regions and op.results and op.name not in SIDE_EFFECT_OPS \
                and all(use.owner in dead for result in op.results
                        for use in result.uses):
            dead.add(op)
    return len(dead)


def _constants_and_applies(func_op) -> int:
    return sum(1 for op in func_op.walk()
               if op.name in ("arith.constant", "affine.apply"))


def measure_work_counts(size: int = 4, trmm_size: int = 8) -> dict:
    """Work counts of two evaluations the DSE backends run.

    One fully unrolled gemm (the perfectized point that tiles every loop by
    its trip count): each ratio is work done over work needed, exactly 1.0
    (or far below it, for the seeded worklist) when nothing is done twice.
    A first-``canonicalize`` visit that rewrites is work needed, one that
    rewrites nothing is the search the seeded worklist exists to avoid.
    Unrolling builds no branch an ``affine.if`` drops, copies nothing that
    fed only such a branch and hands over no dead or duplicate copy, so the
    copies the first ``canonicalize`` finds dead plus the constants and
    applies the first ``cse`` merges (``first_round_deleted_copies``) are
    none.

    And the heaviest evaluation of the kernel sweep, trmm with both guards
    (perfectized, variable bounds removed) and tiles ``size`` x ``size`` x 1:
    the clones of the suffix against the ops it leaves, and the ``affine.if``s
    ``-simplify-affine-if`` decides in what the cleanup tail leaves, which
    must be none.  That the tail leaves nothing for the other passes it
    dropped is ``tests/test_cleanup_tail.py``'s.
    """
    context, encode = _kernel_evaluation("gemm", size)
    counts = _counted_evaluation(context, encode(None))
    wasted = (counts["canonicalize_visits"] or 0) - counts["canonicalize_rewrites"]
    ratios = {
        "first_canonicalize_wasted_visits_per_op":
            wasted / max(1, counts["canonicalize_ops"]),
        "first_round_deleted_copies": counts["canonicalize_dead_at_start"]
            + (counts["cse_merged_constants"] or 0),
        "access_derivations_per_access":
            counts["access_derivations"] / max(1, counts["accesses"]),
        "collections_per_evaluation": float(counts["collections"]),
    }
    print(f"work_counts: gemm {size}^3 fully unrolled: "
          f"{counts['suffix_clones']} clones for {counts['suffix_ops']} ops "
          f"after the suffix, first canonicalize visited "
          f"{counts['canonicalize_visits']} of {counts['canonicalize_ops']} ops "
          f"({counts['canonicalize_rewrites']} visits rewrote, "
          f"{counts['canonicalize_dead_at_start']} ops dead at its start), "
          f"first cse merged {counts['cse_merged_constants']} constants "
          f"and applies, "
          f"{counts['access_derivations']} access derivations for "
          f"{counts['accesses']} accesses, {counts['collections']} "
          f"collection(s) inside the evaluation")
    context, encode = _kernel_evaluation("trmm", trmm_size)
    trmm = _counted_evaluation(context, encode((None, None, 1), rvb=True))
    print(f"work_counts: trmm {trmm_size}, perfectized, variable bounds "
          f"removed, tiles {trmm_size} x {trmm_size} x 1: "
          f"{trmm['suffix_clones']} clones for {trmm['suffix_ops']} ops after "
          f"the suffix, simplify-affine-if rewrote "
          f"{trmm['simplify_affine_if_rewrites']} affine.if(s) after the "
          f"tail")
    return {"size": size, **counts, **ratios,
            **{f"trmm.{name}": trmm[name]
               for name in ("suffix_clones", "suffix_ops", "suffix_clones_per_op",
                            "simplify_affine_if_rewrites")}}


def measure_model_counts(model: str = "vgg16", graph_level: int = 7) -> dict:
    """What one whole-model sweep builds before its first evaluation, taken
    from outside: ``AffineMap`` constructions and default layout builds
    (``build_partition_map`` calls of ``MemRefType``) while ``model`` is
    staged, lowered and split at ``graph_level``, and ``Operation.clone``
    calls while the nodes are split, against the ops of the members' node
    functions (a member's task shares its representative's space).

    The maps are counted in a process that has built no IR yet (``main``
    runs this first): a constant map or a layout built once is shared from
    then on, so later counts would only be lower.
    """
    from repro.affine.map import AffineMap
    from repro.dse.runtime import SweepConfig
    from repro.dse.runtime import model as runtime_model
    from repro.frontend.models import build_model
    from repro.ir import types
    import repro.pipeline  # noqa: F401  (imported before the counters run)
    import repro.transforms  # noqa: F401

    module = build_model(model)
    counts = {"affine_maps": 0, "default_layouts": 0, "split_clones": 0}
    in_split = False
    init, build_layout = AffineMap.__init__, types.build_partition_map
    clone, node_tasks = Operation.clone, runtime_model._node_tasks

    def counted_init(map_, *args, **kwargs):
        counts["affine_maps"] += 1
        init(map_, *args, **kwargs)

    def counted_layout(*args):
        counts["default_layouts"] += 1
        return build_layout(*args)

    def counted_clone(op, value_map=None):
        counts["split_clones"] += in_split
        return clone(op, value_map)

    def counted_split(*args):
        nonlocal in_split
        in_split = True
        try:
            return node_tasks(*args)
        finally:
            in_split = False

    with contextlib.ExitStack() as stack:
        def patch(owner, name, value):
            stack.callback(setattr, owner, name, getattr(owner, name))
            setattr(owner, name, value)

        patch(AffineMap, "__init__", counted_init)
        patch(types, "build_partition_map", counted_layout)
        patch(Operation, "clone", counted_clone)
        patch(runtime_model, "_node_tasks", counted_split)
        tasks, _, _ = runtime_model._staged_tasks(module, graph_level,
                                                  SweepConfig())
    spaces: set[int] = set()
    members = member_ops = 0
    for task in tasks:
        if id(task.space) in spaces:
            members += 1
            member_ops += sum(1 for _ in task.module.functions()[0].walk())
        spaces.add(id(task.space))
    print(f"model_counts: {model} at graph level {graph_level}, staged, "
          f"lowered and split into {len(tasks)} nodes: "
          f"{counts['affine_maps']} affine maps and {counts['default_layouts']} "
          f"default layouts built, {counts['split_clones']} clones while "
          f"splitting for {member_ops} ops of {members} repeated nodes")
    return {"model.nodes": len(tasks), "model.member_ops": member_ops,
            "model.split_clones_per_member_op":
                counts["split_clones"] / max(1, member_ops),
            **{f"model.{name}": value for name, value in counts.items()}}


def measure_warm_sweep_counts(model: str = "vgg16", graph_level: int = 7,
                              checkpoint_every: int = 16) -> dict:
    """What a whole-model sweep the estimate cache answers in full still
    does, taken from outside: a cold sweep of ``model`` at ``graph_level``
    fills a persistent cache (checkpoint directory, ``checkpoint_every``
    points between periodic saves), then the same sweep runs again with
    wrappers counting ``Random.getstate`` and ``Random.seed`` calls,
    ``CheckpointStore.save`` calls, ``ModelFrontierPoint`` constructions and
    ``KernelDesignSpace.neighbors`` calls.  ``Platform.to_dict`` calls (the
    payload ``config_hash`` encodes) are counted over both sweeps."""
    import tempfile

    from repro.dse.runtime import EstimateCache
    from repro.dse.runtime.checkpoint import CheckpointStore
    from repro.dse.runtime.model import ModelFrontierPoint
    from repro.dse.space import KernelDesignSpace
    from repro.estimation.platform import Platform, VU9P_SLR
    from repro.pipeline import explore_dnn

    counts = {"rng_state_reads": 0, "rng_seeds": 0, "checkpoint_saves": 0,
              "frontier_points": 0, "neighbor_lists": 0,
              "platform_hash_payloads": 0}
    counting = False

    def counted(name, original):
        def wrapper(*args, **kwargs):
            if counting or name == "platform_hash_payloads":
                counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with tempfile.TemporaryDirectory() as directory, \
            contextlib.ExitStack() as stack:
        def patch(owner, attribute, name):
            original = getattr(owner, attribute)
            stack.callback(setattr, owner, attribute, original)
            setattr(owner, attribute, counted(name, original))

        patch(random.Random, "getstate", "rng_state_reads")
        patch(random.Random, "seed", "rng_seeds")
        patch(CheckpointStore, "save", "checkpoint_saves")
        patch(ModelFrontierPoint, "__init__", "frontier_points")
        patch(KernelDesignSpace, "neighbors", "neighbor_lists")
        patch(Platform, "to_dict", "platform_hash_payloads")

        def sweep():
            cache = EstimateCache(f"{directory}/estimates.jsonl")
            try:
                return explore_dnn(
                    model, VU9P_SLR, graph_level=graph_level, jobs=1,
                    seed=2022, cache=cache,
                    checkpoint_dir=f"{directory}/checkpoints",
                    checkpoint_every=checkpoint_every)
            finally:
                cache.close()

        sweep()
        counting = True
        warm = sweep()
    assert warm.cache_misses == 0
    nodes, kept = len(warm.node_order), len(warm.frontier)
    print(f"warm_sweep_counts: {model} at graph level {graph_level}, "
          f"{nodes} nodes served from the cache: "
          f"{counts['rng_state_reads']} RNG state reads, "
          f"{counts['rng_seeds']} seedings, {counts['checkpoint_saves']} "
          f"checkpoint saves, {counts['frontier_points']} model frontier "
          f"points built for {kept} kept, {counts['neighbor_lists']} "
          f"neighbour lists; {counts['platform_hash_payloads']} platform-hash "
          f"payload(s) over both sweeps")
    return {"warm.nodes": nodes, "warm.frontier": kept,
            **{f"warm.{name}": value for name, value in counts.items()},
            "warm.rng_state_reads_per_node":
                counts["rng_state_reads"] / max(1, nodes),
            "warm.rng_seeds_per_node": counts["rng_seeds"] / max(1, nodes),
            # One platform, VU9P_SLR.
            "warm.platform_hash_payloads_per_platform":
                float(counts["platform_hash_payloads"]),
            "warm.frontier_points_per_point_kept":
                counts["frontier_points"] / max(1, kept)}


def _cold_model_sweep(model: str, graph_level: int) -> None:
    """The whole-model sweep of ``model`` at ``graph_level``, inline and
    without a cache."""
    from repro.estimation.platform import VU9P_SLR
    from repro.pipeline import explore_dnn

    explore_dnn(model, VU9P_SLR, graph_level=graph_level, jobs=1, seed=2022)


def _cold_kernel_sweep(size: int) -> None:
    """The six Table III kernels at ``size`` in one C module, inline and
    without a cache, with the end-to-end benchmark's budget."""
    from repro.estimation.platform import XC7Z020
    from repro.kernels import KERNEL_NAMES, kernel_source
    from repro.pipeline import compile_c, explore_module_kernels

    source = "\n".join(kernel_source(name, size) for name in KERNEL_NAMES)
    explore_module_kernels(compile_c(source, "table3"), XC7Z020, jobs=1,
                           seed=2022, num_samples=8, max_iterations=12,
                           batch_size=8)


def evaluation_cost_fit(model: str = "vgg16", graph_level: int = 7,
                        kernel_size: int = 4) -> dict:
    """Least-squares fit ``ms = fixed + per_op * ops`` of every evaluation of
    the cold model sweep and, apart, of the cold kernel sweep.  ``ops`` is
    the op count of the function the estimator is handed; the wrappers time
    ``evaluate_encoded`` and hold the function until the clock stopped, so
    counting its ops is outside the timed call."""
    from repro.dse.runtime import worker
    from repro.estimation.estimator import QoREstimator

    samples: list = []
    estimated: list = []
    evaluate, estimate = worker.evaluate_encoded, QoREstimator.estimate_function

    def held(estimator, func_op, *args, **kwargs):
        estimated.append(func_op)
        return estimate(estimator, func_op, *args, **kwargs)

    def timed(*args, **kwargs):
        started = time.perf_counter()
        record = evaluate(*args, **kwargs)
        seconds = time.perf_counter() - started
        samples.append((sum(1 for _ in estimated[-1].walk()) - 1, seconds))
        estimated.clear()
        return record

    sweeps = {model: lambda: _cold_model_sweep(model, graph_level),
              f"table3_n{kernel_size}": lambda: _cold_kernel_sweep(kernel_size)}
    fits = {}
    with contextlib.ExitStack() as stack:
        stack.callback(setattr, worker, "evaluate_encoded", evaluate)
        stack.callback(setattr, QoREstimator, "estimate_function", estimate)
        worker.evaluate_encoded = timed
        QoREstimator.estimate_function = held
        for name, sweep in sweeps.items():
            samples.clear()
            sweep()
            fits[name] = _fit(samples)
    for name, (count, fixed_ms, per_op_us) in fits.items():
        print(f"evaluation_fit: {name}: {count} evaluations, "
              f"{fixed_ms:.2f} ms + {per_op_us:.1f} us/op (ungated)")
    return {f"fit.{name}": {"evaluations": count, "fixed_ms": fixed_ms,
                            "per_op_us": per_op_us}
            for name, (count, fixed_ms, per_op_us) in fits.items()}


def _fit(samples) -> tuple[int, float, float]:
    """(count, fixed ms, us per op) of a least-squares line through
    ``(ops, seconds)`` samples."""
    count = len(samples)
    mean_ops = sum(ops for ops, _ in samples) / count
    mean_s = sum(seconds for _, seconds in samples) / count
    spread = sum((ops - mean_ops) ** 2 for ops, _ in samples)
    slope = sum((ops - mean_ops) * (seconds - mean_s)
                for ops, seconds in samples) / spread if spread else 0.0
    return count, (mean_s - slope * mean_ops) * 1e3, slope * 1e6


def measure_cold_sweep_counts(model: str = "vgg16", graph_level: int = 7,
                              kernel_size: int = 4) -> dict:
    """What an evaluation's fixed cost is made of over the cold sweeps
    (:func:`_cold_model_sweep`, :func:`_cold_kernel_sweep`), taken from
    outside: wrappers count
    ``build_prefix`` calls per (module, function, prefix key),
    ``PatternSet`` constructions against the sets the rewrite drivers ran,
    and, per ``estimate_function`` call, ``_estimate_block`` entries against
    those of one walk (the same function estimated at its own target II,
    counted apart)."""
    from repro.dse import incremental
    from repro.estimation.estimator import QoREstimator
    from repro.ir import rewrite

    builds: dict = {}
    dispatch = {"builds": 0, "sets": set()}
    visits = {"calls": 0, "walks": 0, "visits": 0, "counting": True}
    build_prefix = incremental.build_prefix
    pattern_set, driver_init = rewrite.PatternSet.__init__, \
        rewrite.GreedyRewriteDriver.__init__
    estimate, block = QoREstimator.estimate_function, QoREstimator._estimate_block

    def counted_build(module, point, func_name=None):
        key = (id(module), func_name, point.prefix_key())
        builds[key] = builds.get(key, 0) + 1
        return build_prefix(module, point, func_name)

    def counted_set(patterns, *args, **kwargs):
        dispatch["builds"] += 1
        pattern_set(patterns, *args, **kwargs)

    def noted_driver(driver, patterns, *args, **kwargs):
        driver_init(driver, patterns, *args, **kwargs)
        dispatch["sets"].add(id(driver._buckets))

    def counted_block(estimator, block_op):
        visits["visits" if visits["counting"] else "walks"] += 1
        return block(estimator, block_op)

    def counted_estimate(estimator, func_op, module=None, *args, **kwargs):
        visits["calls"] += 1
        result = estimate(estimator, func_op, module, *args, **kwargs)
        visits["counting"] = False
        try:
            estimate(estimator, func_op, module)
        finally:
            visits["counting"] = True
        return result

    with contextlib.ExitStack() as stack:
        def patch(owner, name, value):
            stack.callback(setattr, owner, name, getattr(owner, name))
            setattr(owner, name, value)

        patch(incremental, "build_prefix", counted_build)
        patch(rewrite.PatternSet, "__init__", counted_set)
        patch(rewrite.GreedyRewriteDriver, "__init__", noted_driver)
        patch(QoREstimator, "estimate_function", counted_estimate)
        patch(QoREstimator, "_estimate_block", counted_block)
        _cold_model_sweep(model, graph_level)
        _cold_kernel_sweep(kernel_size)
    total_builds = sum(builds.values())
    print(f"cold_sweep_counts: {model} at graph level {graph_level} and the "
          f"Table III kernels at n = {kernel_size}, inline: {total_builds} "
          f"post-prefix builds for {len(builds)} (kernel, prefix key) pairs, "
          f"{dispatch['builds']} dispatch table(s) built for "
          f"{len(dispatch['sets'])} pattern set(s) run, {visits['visits']} "
          f"estimator block visits in {visits['calls']} calls for "
          f"{visits['walks']} in one walk each")
    return {"cold.prefix_builds": total_builds,
            "cold.prefix_keys": len(builds),
            "cold.prefix_builds_per_key": total_builds / max(1, len(builds)),
            "cold.dispatch_builds": dispatch["builds"],
            "cold.dispatch_builds_per_pattern_set":
                dispatch["builds"] / max(1, len(dispatch["sets"])),
            "cold.estimate_calls": visits["calls"],
            "cold.block_visits": visits["visits"],
            "cold.block_visits_per_walk":
                visits["visits"] / max(1, visits["walks"])}


def measure_scan_counts(size: int = 4) -> dict:
    """What the three block scans read during one evaluation of each of
    :data:`SCAN_POINTS`, taken from outside.

    Wrappers around the scan passes' ``run`` note the ops and accesses of
    the function at entry; while one runs, a wrapper around
    ``Operation.walk`` counts the items it yields and wrappers around
    ``access_key`` count the address keys computed.  The cleanup pipeline
    runs every scan once, so a ratio is that one run's.
    """
    from repro.dse.runtime.worker import evaluate_encoded
    from repro.transforms.cleanup import simplify_memref_access, store_forward
    from repro.transforms.cleanup.cse import CSEPass

    passes = {"affine-store-forward": store_forward.AffineStoreForwardPass,
              "simplify-memref-access": simplify_memref_access.SimplifyMemrefAccessPass,
              "cse": CSEPass}
    context, encode = _kernel_evaluation("gemm", size)
    walk, key = Operation.walk, store_forward.access_key
    counts: dict = {}
    running = None

    def counted_walk(op):
        for item in walk(op):
            if running is not None:
                running["walk_items"] += 1
            yield item

    def counted_key(*args):
        running["address_keys"] += 1
        return key(*args)

    def counted_run(pass_name, run):
        def wrapper(pass_, func_op):
            nonlocal running
            entry = counts[point].setdefault(pass_name, {
                "ops": 0, "accesses": 0, "walk_items": 0, "address_keys": 0})
            names = [op.name for op in walk(func_op)][1:]
            entry["ops"] += len(names)
            entry["accesses"] += sum(name in store_forward.ACCESS_OPS
                                     for name in names)
            running = entry
            try:
                run(pass_, func_op)
            finally:
                running = None
        return wrapper

    with contextlib.ExitStack() as stack:
        def patch(owner, name, value):
            stack.callback(setattr, owner, name, getattr(owner, name))
            setattr(owner, name, value)

        patch(Operation, "walk", counted_walk)
        patch(store_forward, "access_key", counted_key)
        patch(simplify_memref_access, "access_key", counted_key)
        for pass_name, pass_class in passes.items():
            patch(pass_class, "run", counted_run(pass_name, pass_class.run))
        for point, tile in SCAN_POINTS.items():
            counts[point] = {}
            assert evaluate_encoded(context, encode(tile)).ok

    def ratio(entry, count, base):
        # A scan the counters never saw fails its gate.
        return entry[count] / entry[base] if entry.get(base) else float("inf")

    ratios = {}
    for point, per_pass in counts.items():
        for name in passes:
            entry = per_pass.get(name, {})
            ratios[f"walk_items_per_op.{name}.{point}"] = \
                ratio(entry, "walk_items", "ops")
            if name in SCAN_KEY_LIMIT:
                ratios[f"address_keys_per_access.{name}.{point}"] = \
                    ratio(entry, "address_keys", "accesses")
        print(f"scan_counts: gemm {size}^3 {point}: " + "; ".join(
            f"{name} walked {entry['walk_items']} items over "
            f"{entry['ops']} ops, {entry['address_keys']} keys for "
            f"{entry['accesses']} accesses"
            for name, entry in per_pass.items()))
    return {"scan_counts": counts, **ratios}


def measure_gemm_dse(sizes) -> dict:
    """Wall-clock of one fully-unrolled gemm DSE evaluation per size."""
    from repro.dse.apply import apply_design_point
    from repro.dse.space import KernelDesignPoint
    from repro.pipeline import compile_kernel

    seconds = {}
    for size in sizes:
        module = compile_kernel("gemm", size)
        point = KernelDesignPoint(True, True, (1, 2, 0), (size,) * 3, 1)
        started = time.perf_counter()
        design = apply_design_point(module, point)
        seconds[size] = time.perf_counter() - started
        print(f"gemm {size}^3 full-unroll evaluation: {seconds[size]:.2f}s "
              f"(latency={design.qor.latency}, dsp={design.qor.dsp})")
    return seconds


SCENARIOS = {
    "append": scenario_append,
    "mid_insert": scenario_mid_insert,
    "mid_remove": scenario_mid_remove,
    "splice": scenario_splice,
    "ordering": scenario_ordering,
    "move": scenario_move,
    "defined_above": scenario_defined_above,
    "verify_nested": scenario_verify_nested,
    "rewrite_storm": scenario_rewrite_storm,
    "pattern_dispatch": scenario_pattern_dispatch,
    "list_mid_insert": scenario_list_mid_insert,
}

#: Scenarios gated on near-linear scaling (the baseline is *expected* to be
#: quadratic, so it is excluded).
GATED = ("append", "mid_insert", "mid_remove", "splice", "ordering", "move",
         "defined_above", "verify_nested", "rewrite_storm", "pattern_dispatch")


def measure(sizes, repeats: int = 3) -> dict:
    """Best-of-``repeats`` seconds for every (scenario, size) pair."""
    results = {name: {} for name in SCENARIOS}
    for name, scenario in SCENARIOS.items():
        for size in sizes:
            best = min(scenario(size) for _ in range(repeats))
            results[name][size] = best
    return results


def per_op_ns(results: dict, name: str, size: int) -> float:
    return results[name][size] / size * 1e9


def growth_factor(results: dict, name: str, sizes) -> float:
    """Per-op cost growth from the smallest to the largest size."""
    lo, hi = sizes[0], sizes[-1]
    base = per_op_ns(results, name, lo)
    return per_op_ns(results, name, hi) / max(base, 1e-9)


def print_report(results: dict, sizes) -> None:
    header = f"{'scenario':<18}" + "".join(f"{size:>12}" for size in sizes) \
        + f"{'growth':>9}"
    print("=" * len(header))
    print("IR hot-path scaling (per-op ns; growth = per-op cost largest/smallest)")
    print("=" * len(header))
    print(header)
    for name in SCENARIOS:
        row = f"{name:<18}"
        for size in sizes:
            row += f"{per_op_ns(results, name, size):>12.0f}"
        row += f"{growth_factor(results, name, sizes):>8.1f}x"
        print(row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="scaling micro-benchmark of the intrusive Block op list")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes + regression gate for CI")
    parser.add_argument("--sizes", type=int, nargs="+",
                        help="override the benchmark sizes")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per measurement (best-of)")
    parser.add_argument("--max-growth", type=float, default=5.0,
                        help="per-op cost growth allowed across the size "
                             "sweep before the smoke gate fails (linear ~1x, "
                             "quadratic ~= the size ratio)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the raw measurements as JSON")
    parser.add_argument("--gemm-dse", type=int, nargs="+", metavar="SIZE",
                        help="also time one fully-unrolled gemm DSE "
                             "evaluation per problem size (recorded under "
                             "'gemm_dse_seconds' in the --json payload)")
    parser.add_argument("--prefix-reuse", action="store_true",
                        help="also A/B incremental evaluation (prefix-snapshot "
                             "caching vs from-scratch) over a fixed gemm "
                             "sweep; implied by --smoke, where the hit and "
                             "miss counts of each fresh cache are gated")
    parser.add_argument("--work-counts", action="store_true",
                        help="also count the work of one fully unrolled gemm "
                             "evaluation (clones, canonicalize visits, access "
                             "derivations, collections), what the block "
                             "scans read (walk items, address keys), what "
                             "a vgg16 staging and split builds (maps, layouts, "
                             "clones), what a warm vgg16 sweep still does "
                             "(RNG reads, checkpoint saves, frontier points) "
                             "and what cold sweeps build per evaluation "
                             "(prefixes, dispatch tables, estimator walks); "
                             "implied by --smoke, where the counts are gated")
    args = parser.parse_args(argv)

    sizes = tuple(args.sizes) if args.sizes \
        else (SMOKE_SIZES if args.smoke else FULL_SIZES)
    # Before anything else builds IR: see measure_model_counts.
    model_counts = measure_model_counts() \
        if args.work_counts or args.smoke else None
    results = measure(sizes, repeats=args.repeats)
    print_report(results, sizes)
    gemm_dse = measure_gemm_dse(args.gemm_dse) if args.gemm_dse else None
    prefix_reuse = measure_prefix_reuse() \
        if args.prefix_reuse or args.smoke else None
    work_counts = {**model_counts, **measure_work_counts(),
                   **measure_scan_counts(), **measure_warm_sweep_counts(),
                   **measure_cold_sweep_counts(), **evaluation_cost_fit()} \
        if args.work_counts or args.smoke else None

    if args.json:
        payload = {
            "sizes": list(sizes),
            "seconds": {name: {str(size): results[name][size] for size in sizes}
                        for name in SCENARIOS},
            "per_op_ns": {name: {str(size): per_op_ns(results, name, size)
                                 for size in sizes} for name in SCENARIOS},
            "growth": {name: growth_factor(results, name, sizes)
                       for name in SCENARIOS},
        }
        if gemm_dse is not None:
            payload["gemm_dse_seconds"] = {str(size): seconds
                                           for size, seconds in gemm_dse.items()}
        if prefix_reuse is not None:
            payload["prefix_reuse"] = prefix_reuse
        if work_counts is not None:
            payload["work_counts"] = work_counts
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    if args.smoke:
        # Self-calibrate against the quadratic plain-list baseline measured
        # on the same machine: on a noisy CI runner both inflate together,
        # so the relative bound keeps the gate from flaking while still
        # catching a primitive that regressed to baseline-like scaling.
        baseline_growth = growth_factor(results, "list_mid_insert", sizes)
        limit = max(args.max_growth, 0.6 * baseline_growth)
        failures = []
        for name in GATED:
            growth = growth_factor(results, name, sizes)
            if growth > limit:
                failures.append(f"{name}: per-op cost grew {growth:.1f}x over "
                                f"a {sizes[-1] // sizes[0]}x size sweep "
                                f"(limit {limit:.1f}x; quadratic baseline "
                                f"grew {baseline_growth:.1f}x)")
        if prefix_reuse is not None:
            counts = (prefix_reuse["misses"], prefix_reuse["hits"])
            if counts != (1, prefix_reuse["points"] - 1):
                failures.append(
                    f"prefix_reuse: a fresh snapshot cache saw {counts[0]} "
                    f"misses and {counts[1]} hits over "
                    f"{prefix_reuse['points']} points sharing one prefix "
                    f"(expected 1 and {prefix_reuse['points'] - 1})")
        for name, limit_ratio in WORK_COUNT_LIMITS.items():
            if work_counts[name] > limit_ratio:
                failures.append(f"work_counts: {name} is "
                                f"{work_counts[name]:.3f} (limit {limit_ratio:g}): "
                                f"this work is done more than once")
        if not work_counts["canonicalize_ops"] or not work_counts["accesses"]:
            failures.append("work_counts: the counters saw no canonicalize "
                            "drive or no access (the evaluation moved from "
                            "under them)")
        if failures:
            print("hot-path scaling regression:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"smoke gate passed: all gated scenarios scale near-linearly "
              f"(growth <= {limit:.1f}x), the snapshot cache builds each "
              f"prefix once, an evaluation does each op's work once, a "
              f"model split shares its maps and clones no representative, "
              f"a warm model sweep pays for its lookups, and a cold sweep builds "
              f"each prefix, dispatch table and estimator walk once")
    return 0


if __name__ == "__main__":
    sys.exit(main())

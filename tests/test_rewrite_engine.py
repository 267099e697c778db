"""The rewrite-engine overhaul: bucketed dispatch, the order-keyed
deduplicating worklist, slotted/interned IR objects, and the LRU-bounded
estimate cache.

The oracle harness at the bottom pins the contract the worklist driver
lives under: byte-identical IR with what the former full-module fixpoint
sweep produced across the golden kernel corpus (frozen in
``tests/golden/sweep_oracle.json``), with a bounded number of visits per op
even through a constant-folding storm.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pickle

import pytest

from repro import obs
from repro.affine.expr import dim
from repro.affine.map import AffineMap
from repro.affine.set import IntegerSet
from repro.dialects import arith
from repro.dialects.affine_ops import AffineApplyOp, AffineForOp, AffineIfOp
from repro.dse.apply import apply_design_point
from repro.dse.space import KernelDesignPoint
from repro.emit.hlscpp_emitter import emit_hlscpp
from repro.ir.block import Block
from repro.ir.builder import Builder
from repro.ir.operation import Operation
from repro.ir.printer import Printer
from repro.ir.rewrite import (GreedyRewriteDriver, PatternRewriter,
                              RewritePattern)
from repro.ir.types import f32, index
from repro.ir.value import OpResult
from repro.obs.report import format_pattern_stats, pattern_stats_of
from repro.pipeline import compile_kernel
from repro.transforms.cleanup.canonicalize import (_FOLDABLE_NAMES,
                                                   canonicalization_patterns)
from repro.transforms.cleanup.simplify_affine_if import simplify_affine_ifs


class _Never(RewritePattern):
    def __init__(self, op_name=None, benefit=1):
        self.op_name = op_name
        self.benefit = benefit

    def match_and_rewrite(self, op, rewriter) -> bool:
        return False


def _chain_module(length: int, root_name: str = "bench.root"):
    """One block: a unit constant and ``length`` chained ``arith.addi`` ops."""
    root = Operation(root_name, num_regions=1)
    block = root.regions[0].add_block(Block())
    one = arith.ConstantOp(1, index)
    block.append(one)
    previous = one.result()
    for _ in range(length):
        op = arith.AddIOp(previous, one.result())
        block.append(op)
        previous = op.result()
    return root, block


class TestBucketedDispatch:
    def test_buckets_built_at_construction(self):
        named = [_Never("a.x", benefit=1), _Never("a.y", benefit=5)]
        generic = [_Never(None, benefit=3)]
        driver = GreedyRewriteDriver(named + generic)
        assert set(driver._buckets) == {"a.x", "a.y"}
        # Wildcards merge into every bucket; benefit order is preserved.
        assert [p.benefit for p in driver._buckets["a.x"]] == [3, 1]
        assert [p.benefit for p in driver._buckets["a.y"]] == [5, 3]
        assert driver._generic == (generic[0],)

    def test_unknown_name_dispatches_to_wildcards_only(self):
        wildcard = _Never(None)
        driver = GreedyRewriteDriver([_Never("a.x"), wildcard])
        op = Operation("b.unknown")
        assert driver._buckets.get(op.name, driver._generic) == (wildcard,)

    def test_bucket_stats_reported_per_op_name(self):
        root, _ = _chain_module(4)
        with obs.session() as session:
            driver = GreedyRewriteDriver(canonicalization_patterns())
            driver.rewrite(root)
        assert "arith.addi" in driver.bucket_stats
        assert driver.bucket_stats["arith.addi"][0] >= 4  # the folds
        stats, buckets = pattern_stats_of(session.metrics.counters)
        assert buckets == {name: tuple(counts) for name, counts
                           in driver.bucket_stats.items()}
        report = format_pattern_stats(stats, buckets)
        assert "Pattern dispatch buckets" in report
        assert "arith.addi" in report


class TestDeduplicatingWorklist:
    def test_repeated_enqueue_visits_once(self):
        visits = []

        class Count(RewritePattern):
            op_name = "bench.target"

            def match_and_rewrite(self, op, rewriter) -> bool:
                visits.append(op)
                return False

        root = Operation("bench.root", num_regions=1)
        block = root.regions[0].add_block(Block())
        target = Operation("bench.target")
        block.append(target)
        driver = GreedyRewriteDriver([Count()])
        driver._root = root
        for _ in range(50):
            driver.enqueue(target)
        assert len(driver._heap) == 1  # deduplicated while pending
        driver.rewrite(root)
        assert len(visits) == 1
        assert driver.max_visits() == 1

    def test_processing_follows_program_order(self):
        order = []

        class Record(RewritePattern):
            def match_and_rewrite(self, op, rewriter) -> bool:
                order.append(op.name)
                return False

        root = Operation("bench.root", num_regions=1)
        block = root.regions[0].add_block(Block())
        for i in range(8):
            block.append(Operation(f"bench.op{i}"))
        driver = GreedyRewriteDriver([Record()])
        driver.rewrite(root)
        assert order == [f"bench.op{i}" for i in range(8)]

    def test_constant_folding_storm_visits_are_bounded(self):
        """The regression the order-keyed worklist exists for: after a mass
        constant fold, no op may be revisited more than a small constant
        number of times (the seed driver's revisit count grew with the
        number of users re-enqueued behind it)."""
        length = 300
        root, _ = _chain_module(length)
        driver = GreedyRewriteDriver(canonicalization_patterns(),
                                     max_iterations=64)
        driver.rewrite(root)
        # Every op folds and everything is DCE'd...
        assert sum(len(b) for b in
                   (blk for op in root.walk() for r in op.regions
                    for blk in r.blocks)) == 0
        # ...with each op processed at most k times (fold + DCE revisit).
        assert driver.max_visits() <= 3
        # Total pattern attempts stay linear in the op count.
        attempts = sum(h + m for h, m in driver.pattern_stats.values())
        assert attempts <= 12 * length

    def test_non_convergence_budget_still_enforced(self):
        class AlwaysChanges(RewritePattern):
            def match_and_rewrite(self, op, rewriter) -> bool:
                rewriter.notify_changed()
                return True

        root, _ = _chain_module(2)
        driver = GreedyRewriteDriver([AlwaysChanges()], max_iterations=4)
        with pytest.raises(RuntimeError, match="did not converge"):
            driver.rewrite(root)


class TestSlottedInternedIR:
    def test_ir_objects_have_no_instance_dict(self):
        module = compile_kernel("gemm", 4)
        for op in module.walk():
            assert not hasattr(op, "__dict__"), op.name
            for result in op.results:
                assert not hasattr(result, "__dict__")
            for region in op.regions:
                assert not hasattr(region, "__dict__")
                for block in region.blocks:
                    assert not hasattr(block, "__dict__")
                    for argument in block.arguments:
                        assert not hasattr(argument, "__dict__")

    def test_clone_interns_shareable_attribute_dicts(self):
        module = compile_kernel("gemm", 4)
        load = next(op for op in module.walk() if op.name == "affine.load")
        clone = load.clone(dict.fromkeys([]))
        assert clone._attributes is load._attributes  # interned, not copied
        # While shared, the public mapping is read-only: a stray direct
        # mutation raises instead of silently editing every sharing clone.
        with pytest.raises(TypeError):
            clone.attributes["marker"] = 1
        # Copy-on-write: mutating either side un-shares first.
        clone.set_attr("marker", 1)
        assert clone._attributes is not load._attributes
        assert not load.has_attr("marker")
        load.set_attr("other", 2)
        assert not clone.has_attr("other")

    def test_clone_does_not_share_mutable_attribute_values(self):
        from repro.dialects.hlscpp import (LOOP_DIRECTIVE_ATTR, LoopDirective)

        op = Operation("bench.op")
        op.set_attr(LOOP_DIRECTIVE_ATTR, LoopDirective(pipeline=True))
        clone = op.clone()
        assert clone.attributes is not op.attributes
        directive = clone.get_attr(LOOP_DIRECTIVE_ATTR)
        assert directive is not op.get_attr(LOOP_DIRECTIVE_ATTR)
        directive.achieved_ii = 7  # in-place mutation must stay private
        assert op.get_attr(LOOP_DIRECTIVE_ATTR).achieved_ii is None

    def test_operation_names_are_interned(self):
        a = Operation("bench." + "x" * 3)
        b = Operation("bench." + "x" * 3)
        assert a.name is b.name

    def test_use_list_drops_are_order_preserving(self):
        one = arith.ConstantOp(1, index)
        users = [arith.AddIOp(one.result(), one.result()) for _ in range(5)]
        # Each user registered two uses, in creation order.
        owners = [use.owner for use in one.result().uses]
        assert owners == [u for user in users for u in (user, user)]
        users[2].drop_all_references()
        owners = [use.owner for use in one.result().uses]
        assert owners == [u for user in users for u in (user, user)
                          if u is not users[2]]
        assert one.result().num_uses() == 8
        assert users[0] in one.result().users

    def test_pickle_preserves_use_registration_order(self):
        module = compile_kernel("gemm", 4)
        restored = pickle.loads(pickle.dumps(module))

        def use_orders(mod):
            return [[(use.owner.name, use.index) for use in result.uses]
                    for op in mod.walk() for result in op.results]

        assert use_orders(module) == use_orders(restored)
        printed = lambda mod: Printer(stable_ids=True).print(mod)
        assert printed(module) == printed(restored)

    def test_replace_uses_still_works_through_use_objects(self):
        one = arith.ConstantOp(1, index)
        two = arith.ConstantOp(2, index)
        add = arith.AddIOp(one.result(), one.result())
        one.result().replace_all_uses_with(two.result())
        assert not one.result().has_uses()
        assert add.operands == (two.result(), two.result())
        assert isinstance(add.operand(0), OpResult)


GOLDEN_CORPUS = {
    "gemm8_tiled": ("gemm", 8, KernelDesignPoint(True, True, (1, 2, 0), (2, 1, 2), 1)),
    "gemm8_plain": ("gemm", 8, KernelDesignPoint(True, True, (0, 1, 2), (1, 1, 1), 1)),
    "gemm8_unrolled": ("gemm", 8, KernelDesignPoint(True, True, (1, 2, 0), (8, 8, 8), 1)),
    "syrk8_tiled": ("syrk", 8, KernelDesignPoint(True, True, (0, 1, 2), (2, 2, 1), 1)),
    "bicg8_plain": ("bicg", 8, KernelDesignPoint(True, True, (0, 1), (1, 1), 1)),
}


#: What the sweep strategy — a full-module fixpoint, the driver's oracle
#: until it was deleted — produced on the corpus and three smaller cases.
SWEEP_ORACLE = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "sweep_oracle.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestWorklistSweepAB:
    """The worklist driver produces byte-identical IR to the sweep oracle."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_CORPUS))
    def test_worklist_and_sweep_byte_identical(self, key):
        kernel, size, point = GOLDEN_CORPUS[key]
        design = apply_design_point(compile_kernel(kernel, size), point)
        assert {"ir_sha256": sha256(Printer(stable_ids=True).print(design.module)),
                "cpp_sha256": sha256(emit_hlscpp(design.module)),
                "latency": design.qor.latency, "dsp": design.qor.dsp,
                "lut": design.qor.lut} == SWEEP_ORACLE["corpus"][key]


class TestSharedDispatch:
    """A pass's pattern set is built once per process and shared, read-only,
    by every driver; only a run's own state is created per run."""

    def test_pattern_counts_equal_the_frozen_ones_on_the_golden_pipelines(self):
        for key, (kernel, size, point) in sorted(GOLDEN_CORPUS.items()):
            module = compile_kernel(kernel, size)
            with obs.session() as session:
                apply_design_point(module, point)
            patterns, buckets = pattern_stats_of(session.metrics.counters)
            frozen = SWEEP_ORACLE["worklist_pattern_stats"][key]
            assert {name: list(counts) for name, counts in patterns.items()} \
                == frozen["patterns"], key
            assert {name: list(counts) for name, counts in buckets.items()} \
                == frozen["buckets"], key

    def test_no_dispatch_is_built_per_run(self, monkeypatch):
        from repro.ir.rewrite import PatternSet
        from repro.transforms.cleanup.canonicalize import canonicalize

        built = []
        construct = PatternSet.__init__

        def counted(pattern_set, patterns):
            built.append(pattern_set)
            construct(pattern_set, patterns)

        monkeypatch.setattr(PatternSet, "__init__", counted)
        tables = set()
        construct_driver = GreedyRewriteDriver.__init__

        def noted(driver, *args, **kwargs):
            construct_driver(driver, *args, **kwargs)
            tables.add(id(driver._buckets))

        monkeypatch.setattr(GreedyRewriteDriver, "__init__", noted)
        apply_design_point(compile_kernel("gemm", 8), GOLDEN_CORPUS["gemm8_tiled"][2])
        canonicalize(_chain_module(4)[0])
        simplify_affine_ifs(_guarded_loop_module())
        assert not built
        assert len(tables) == 2  # canonicalize, simplify-affine-if

    def test_simplified_count_is_per_run(self):
        assert simplify_affine_ifs(_guarded_loop_module()) == 1
        assert simplify_affine_ifs(_guarded_loop_module()) == 1
        assert simplify_affine_ifs(_chain_module(3)[0]) == 0

    def test_two_threads_canonicalizing_produce_the_serial_ir(self):
        """Threads share the pattern sets: more threads than cores, switching
        as often as the interpreter allows, each on modules of its own."""
        import sys
        import threading

        keys = sorted(GOLDEN_CORPUS)

        def evaluate(key):
            kernel, size, point = GOLDEN_CORPUS[key]
            return Printer(stable_ids=True).print(
                apply_design_point(compile_kernel(kernel, size), point).module)

        serial = {key: evaluate(key) for key in keys}
        start = threading.Barrier(4)
        outputs = {index: [] for index in range(4)}

        def run(index):
            start.wait()
            for key in keys[index % 2::2]:
                outputs[index].append((key, evaluate(key)))

        threads = [threading.Thread(target=run, args=(index,), daemon=True)
                   for index in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index, results in outputs.items():
            assert [key for key, _ in results] == keys[index % 2::2]
            assert all(text == serial[key] for key, text in results)

    def test_trip_count_reads_the_bound_constants_on_every_golden_loop(self):
        from repro.affine.expr import AffineConstantExpr

        def constant(affine_map):
            results = affine_map.results
            if len(results) == 1 and isinstance(results[0], AffineConstantExpr):
                return results[0].value
            return None

        def derived(loop):
            lower, upper = constant(loop.lower_map), constant(loop.upper_map)
            if lower is None or upper is None:
                return None
            return max(0, -(-(upper - lower) // max(1, loop.step)))

        loops = 0
        for key, (kernel, size, point) in sorted(GOLDEN_CORPUS.items()):
            source = compile_kernel(kernel, size)
            for module in (source, apply_design_point(source, point).module):
                for op in module.walk():
                    if isinstance(op, AffineForOp):
                        assert op.trip_count() == derived(op)
                        loops += 1
        assert loops


class _NecessityProbe(RewritePattern):
    """Stands in for ``inner`` in a driver.  Its own ``may_match`` is the
    default, so the worklist seeds every op (the unfiltered run); at every
    hit it checks that ``inner.may_match`` had said yes."""

    def __init__(self, inner: RewritePattern, hits: dict):
        self.inner = inner
        self.op_name = inner.op_name
        self.benefit = inner.benefit
        self.hits = hits

    def match_and_rewrite(self, op, rewriter) -> bool:
        could = self.inner.may_match(op)
        hit = self.inner.match_and_rewrite(op, rewriter)
        if hit:
            name = type(self.inner).__name__
            assert could, f"{name}.may_match said no to {op.name}, which it rewrote"
            self.hits[name] = self.hits.get(name, 0) + 1
        return hit


def _foldable_module():
    """One op of every name the fold pattern knows, all foldable, their
    results kept alive; later ones become foldable only once an earlier one
    has folded (operand 0 is not a constant yet), plus an empty ``affine.if``."""
    root = Operation("bench.root", num_regions=1)
    builder = Builder()
    builder.set_insertion_point_to_end(root.regions[0].add_block(Block()))
    insert = builder.insert
    two, three = (insert(arith.ConstantOp(value, index)).result() for value in (2, 3))
    half, quarter = (insert(arith.ConstantOp(value, f32)).result()
                     for value in (0.5, 0.25))
    results = [insert(cls(two, three)).result()
               for cls in (arith.AddIOp, arith.SubIOp, arith.MulIOp,
                           arith.DivSIOp, arith.RemSIOp)]
    results += [insert(cls(half, quarter)).result()
                for cls in (arith.AddFOp, arith.SubFOp, arith.MulFOp,
                            arith.DivFOp, arith.MaxFOp)]
    less = insert(arith.CmpIOp("slt", two, three)).result()
    results += [
        insert(arith.CmpFOp("ogt", half, quarter)).result(),
        insert(arith.SelectOp(less, two, three)).result(),  # after the cmpi folds
        insert(arith.IndexCastOp(results[0], index)).result(),  # after the addi
        insert(AffineApplyOp(AffineMap(2, 0, [dim(0) * 4 + dim(1)]),
                             [results[2], three])).result(),  # after the muli
        insert(AffineApplyOp(AffineMap.constant_map(5), [])).result(),
    ]
    insert(AffineIfOp(IntegerSet.non_negative(1, dim(0)), [two]))  # empty
    insert(Operation("bench.keep", operands=results))
    return root


def _guarded_loop_module():
    """``for i in [0, 4) { if (i >= 0) { keep(i) } }``: an ``affine.if`` that
    only ``-simplify-affine-if`` can decide — the loop stays, so no unrolling
    ever reads the guard on a constant."""
    root = Operation("bench.root", num_regions=1)
    builder = Builder()
    builder.set_insertion_point_to_end(root.regions[0].add_block(Block()))
    loop = builder.insert(AffineForOp.constant_bounds(0, 4))
    builder.set_insertion_point_to_end(loop.body)
    guard = builder.insert(AffineIfOp(IntegerSet.non_negative(1, dim(0)),
                                      [loop.induction_variable]))
    builder.set_insertion_point_to_end(guard.then_block)
    builder.insert(Operation("bench.keep", operands=[loop.induction_variable]))
    return root


class TestSeededWorklist:
    """``may_match`` filters the seeds; it must be *necessary* for a match."""

    def test_may_match_held_at_every_hit_of_every_pattern(self, monkeypatch):
        modules = {key: compile_kernel(kernel, size)
                   for key, (kernel, size, _) in GOLDEN_CORPUS.items()}

        def evaluate(key):
            return Printer(stable_ids=True).print(
                apply_design_point(modules[key], GOLDEN_CORPUS[key][2]).module)

        def fold(root):
            GreedyRewriteDriver(canonicalization_patterns()).rewrite(root)
            return Printer(stable_ids=True).print(root)

        def simplify(root):
            simplify_affine_ifs(root)
            return Printer(stable_ids=True).print(root)

        seeded = {key: evaluate(key) for key in GOLDEN_CORPUS}
        seeded_folds = fold(_foldable_module())
        seeded_guard = simplify(_guarded_loop_module())
        hits: dict = {}
        construct = GreedyRewriteDriver.__init__

        def construct_probed(driver, patterns, *args, **kwargs):
            construct(driver, [_NecessityProbe(pattern, hits)
                               if isinstance(pattern, RewritePattern) else pattern
                               for pattern in patterns], *args, **kwargs)

        monkeypatch.setattr(GreedyRewriteDriver, "__init__", construct_probed)
        assert {key: evaluate(key) for key in GOLDEN_CORPUS} == seeded
        # Unrolling folds its applies itself, so the kernels never reach the
        # fold pattern: one op of every foldable name does.
        assert fold(_foldable_module()) == seeded_folds
        assert "bench.keep" in seeded_folds and "arith.addi" not in seeded_folds
        assert hits["FoldConstantsPattern"] == len(_FOLDABLE_NAMES) + 1  # two applies
        # Unrolling decides the guards it copies too, so the kernels never
        # reach the if pattern either: a guard under a loop that stays does.
        assert simplify(_guarded_loop_module()) == seeded_guard
        assert "bench.keep" in seeded_guard and "affine.if" not in seeded_guard
        assert hits["SimplifyAffineIfPattern"] == 1
        # Every pattern the evaluation pipelines register was exercised.
        assert set(hits) == {"FoldConstantsPattern", "EraseDeadOpPattern",
                             "SimplifyAffineForPattern", "EraseEmptyAffineIfPattern",
                             "SimplifyAffineIfPattern"}

    def test_unmatchable_ops_are_not_visited(self):
        module = compile_kernel("gemm", 8)
        design_module = apply_design_point(
            module, KernelDesignPoint(True, True, (0, 1, 2), (2, 2, 2), 1)).module
        func_op = design_module.functions()[0]
        driver = GreedyRewriteDriver(canonicalization_patterns())
        assert not driver.rewrite(func_op)  # already canonical
        ops = sum(1 for _ in func_op.walk()) - 1
        assert ops > 50 and sum(driver.visit_counts.values()) <= 0.15 * ops

    def test_budget_counts_matchable_ops_not_seeds(self):
        """A chain of N foldable ops has two seeds (the first, whose operand
        is a constant already, and the last, which is dead) and needs 2N
        rewrites: ``max_iterations`` bounds rewrites per matchable op."""
        root, _ = _chain_module(40)
        driver = GreedyRewriteDriver(canonicalization_patterns(), max_iterations=4)
        driver.rewrite(root)
        assert sum(hits for hits, _ in driver.pattern_stats.values()) > 4 * 2


class TestEstimateCacheLRU:
    def _record(self, encoded):
        from repro.dse.runtime.records import EvaluationRecord
        from repro.estimation.estimator import QoRResult, ResourceUsage

        return EvaluationRecord(
            encoded=tuple(encoded),
            point=KernelDesignPoint(True, True, (0, 1, 2), (1, 1, 1), 1),
            qor=QoRResult(latency=1, interval=1,
                          resources=ResourceUsage()),
            achieved_ii=1)

    def test_eviction_is_lru_and_counted(self):
        from repro.dse.runtime import EstimateCache

        # Room for two records: all three serialize to the same length.
        line = EstimateCache._serialize("fp", self._record((1,)))
        cache = EstimateCache(max_bytes=2 * (len(line) + 1))
        cache.put("fp", self._record((1,)))
        cache.put("fp", self._record((2,)))
        assert cache.get("fp", (1,)) is not None  # refreshes (1,)
        cache.put("fp", self._record((3,)))       # evicts (2,), the LRU
        assert cache.get("fp", (2,)) is None
        assert cache.get("fp", (1,)) is not None
        assert cache.get("fp", (3,)) is not None
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_unbounded_by_default(self):
        from repro.dse.runtime import EstimateCache

        cache = EstimateCache()
        for i in range(100):
            cache.put("fp", self._record((i,)))
        assert len(cache) == 100
        assert cache.stats.evictions == 0

    def test_invalid_bound_rejected(self):
        from repro.dse.runtime import EstimateCache

        with pytest.raises(ValueError):
            EstimateCache(max_bytes=0)


class TestBlockScanBuckets:
    def test_cleanup_scans_declare_their_dispatch_names(self):
        from repro.transforms.cleanup import simplify_memref_access
        from repro.transforms.cleanup.cse import _CSE_NAMES
        from repro.transforms.cleanup.store_forward import ACCESS_OPS

        assert "affine.apply" in _CSE_NAMES
        assert "affine.load" in ACCESS_OPS
        assert "memref.store" in simplify_memref_access.ACCESS_OPS

    def test_scan_blocks_visits_each_block_once_and_reports(self):
        from repro.ir.traversal import scan_blocks

        module = compile_kernel("gemm", 4)
        func_op = module.functions()[0]
        expected = [block for op in func_op.walk()
                    for region in op.regions for block in region.blocks]
        seen = []

        def scan(block):
            seen.append(block)
            return 2 if block is expected[0] else 0

        with obs.session() as session:
            assert scan_blocks(func_op, scan, "Probe") == 2
        assert seen == expected
        assert pattern_stats_of(session.metrics.counters)[0] \
            == {"Probe": (2, len(expected) - 1)}

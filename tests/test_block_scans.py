"""The three block scans against the scans they replaced.

``affine-store-forward``, ``simplify-memref-access`` and ``cse`` were
rewritten to read the IR once (one block enumeration, one forward scan per
block, a nested walk only when there is state to invalidate).  The scans as
they stood before are frozen below as the oracle: after **every** scan pass
of every cleanup pipeline the printed IR, the use order of every value, the
returned count and the ``pattern.*ScanPattern`` hits / misses must equal
the oracle's: on the golden corpus of the rewrite-engine tests (unrolled
as at 2f7637c, every duplicate copy left to the scans), on hand-built
blocks and on every Table III kernel at n = 4 under every prefix and
tiling (gemm's row under ``-m exhaustive`` only).  Two rules were added to
the scans since and are written plainly into the oracle: an address names
its index values by what ``cse`` will merge, and an erased store takes
what fed only it along.
"""

from __future__ import annotations

import itertools

import pytest

from repro import ir, obs
from repro.affine.expr import dim
from repro.affine.map import AffineMap
from repro.affine.set import IntegerSet
from repro.dialects import arith, func, memref
from repro.dialects.affine_ops import (
    AffineApplyOp,
    AffineIfOp,
    AffineLoadOp,
    AffineStoreOp,
    access_indices,
    access_is_write,
    access_memref,
    loop_band_from,
    outermost_loops,
)
from repro.dse.apply import CLEANUP_PIPELINE, CLEANUP_PIPELINES
from repro.ir.operation import SIDE_EFFECT_OPS
from repro.ir.types import MemRefType, f32, index
from repro.ir.value import OpResult
from repro.obs.report import pattern_stats_of
from repro.pipeline import compile_kernel
from repro.transforms import (
    canonicalize,
    eliminate_common_subexpressions,
    forward_stores,
    simplify_affine_ifs,
    simplify_memref_accesses,
)
from repro.transforms.composite import (
    run_design_point_prefix,
    run_design_point_suffix,
)

from cleanups import LIGHT, PARENT_TAIL, SIX_PASS, TABLE3_ROWS
from test_loop_transforms import (
    _function,
    _ir_signature,
    _loop,
    _touch,
    _unrolling_as_at_2f7637c,
)
from test_rewrite_engine import GOLDEN_CORPUS

# -- the oracle: the scans of e045514, verbatim ------------------------------------------

ACCESS_OPS = frozenset({"affine.load", "affine.store",
                        "memref.load", "memref.store"})
_CSE_NAMES = frozenset(arith.PURE_OPS) | frozenset({"affine.apply"})


def scan_blocks(root, scan, name):
    hits = misses = 0
    for op in list(root.walk()):
        for region in op.regions:
            for block in region.blocks:
                applied = scan(block)
                if applied:
                    hits += applied
                else:
                    misses += 1
    obs.add_pattern_stats({name: (hits, misses)}, {})
    return hits


def access_key(op):
    # Edited since e045514: index values by what ``-cse`` will merge
    # (``_number``), not by identity.
    memref = access_memref(op)
    indices = tuple(_number(v) for v in access_indices(op))
    access_map = op.get_attr("map")
    return (id(memref), indices, str(access_map) if access_map is not None else None)


def _number(value):
    """Equal for two values exactly when ``-cse`` leaves them one: the
    results of equal ops it considers in one block."""
    if isinstance(value, OpResult):
        op = value.owner
        if op.name in _CSE_NAMES and not op.regions and op.num_results == 1:
            return (*_op_key(op, _number), id(op.parent))
    return id(value)


def _erase_dead_feeders(values):
    # Added since e045514: what fed only an erased store.
    for value in values:
        if isinstance(value, OpResult):
            op = value.owner
            if op.parent is not None and not op.regions and op.results \
                    and op.name not in SIDE_EFFECT_OPS \
                    and not any(result.has_uses() for result in op.results):
                operands = list(op.operands)
                op.erase()
                _erase_dead_feeders(operands)


def _forward_in_block(block):
    forwarded = 0
    last_store = {}
    for op in list(block.operations):
        if op.parent is not block or op.name not in ACCESS_OPS:
            if op.regions:
                for inner in op.walk():
                    if inner.name in ACCESS_OPS:
                        last_store.pop(id(access_memref(inner)), None)
            continue
        if access_is_write(op):
            key = access_key(op)
            last_store[id(access_memref(op))] = {key: op}
        else:
            key = access_key(op)
            stores = last_store.get(id(access_memref(op)))
            store = stores.get(key) if stores else None
            if store is not None:
                stored_value = store.operand(0)
                op.result().replace_all_uses_with(stored_value)
                op.erase()
                forwarded += 1
    return forwarded


def _remove_write_only_buffers(root):
    removed = 0
    for op in list(root.walk()):
        if op.name != "memref.alloc" or op.parent is None:
            continue
        users = [use.owner for use in op.result().uses]
        if not users:
            op.erase()
            removed += 1
            continue
        if all(user.name in ("affine.store", "memref.store", "memref.dealloc")
               and (user.name == "memref.dealloc" or access_memref(user) is op.result())
               for user in users):
            stored = [user.operand(0) for user in users
                      if user.name != "memref.dealloc"]
            for user in list(users):
                user.erase()
            op.erase()
            _erase_dead_feeders(stored)
            removed += 1
    return removed


def _touched_memrefs(op):
    return {id(access_memref(inner)) for inner in op.walk() if inner.name in ACCESS_OPS}


def _fold_loads(block):
    removed = 0
    available = {}
    for op in list(block.operations):
        if op.parent is not block:
            continue
        if op.name not in ACCESS_OPS:
            if op.regions:
                for memref_id in _touched_memrefs(op):
                    available.pop(memref_id, None)
            continue
        memref_id = id(access_memref(op))
        if access_is_write(op):
            available.pop(memref_id, None)
            continue
        key = access_key(op)
        loads = available.get(memref_id)
        if loads is None:
            loads = available[memref_id] = {}
        earlier = loads.get(key)
        if earlier is not None:
            op.result().replace_all_uses_with(earlier.result())
            op.erase()
            removed += 1
        else:
            loads[key] = op
    return removed


def _remove_dead_stores(block):
    removed = 0
    pending = {}
    overwritten = []
    for op in list(block.operations):
        if op.parent is not block:
            continue
        if op.name not in ACCESS_OPS:
            if op.regions:
                for memref_id in _touched_memrefs(op):
                    pending.pop(memref_id, None)
            continue
        memref_id = id(access_memref(op))
        if access_is_write(op):
            key = access_key(op)
            stores = pending.get(memref_id)
            if stores is None:
                stores = pending[memref_id] = {}
            earlier = stores.get(key)
            if earlier is not None:
                overwritten.append(earlier.operand(0))
                earlier.erase()
                removed += 1
            stores[key] = op
        else:
            pending.pop(memref_id, None)
    _erase_dead_feeders(overwritten)
    return removed


def _cse_block(block):
    removed = 0
    seen = {}
    for op in list(block.operations):
        if op.parent is not block:
            continue
        if op.name not in _CSE_NAMES:
            continue
        if op.regions or op.num_results != 1:
            continue
        key = _op_key(op)
        if key in seen:
            op.result().replace_all_uses_with(seen[key].result())
            op.erase()
            removed += 1
        else:
            seen[key] = op
    return removed


def _op_key(op, number=id):
    # Edited since e045514: the result type (``0 : index`` and ``0.0 : f32``
    # are equal attributes), and operands numbered by ``number``.
    attrs = tuple(sorted((k, _hashable(v)) for k, v in op.attributes.items()))
    return (op.name, tuple(number(operand) for operand in op.operands), attrs,
            op.result().type)


def _hashable(value):
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


def oracle_forward_stores(root):
    return scan_blocks(root, _forward_in_block, "StoreForwardScanPattern") \
        + _remove_write_only_buffers(root)


def oracle_simplify_memref_accesses(root):
    return scan_blocks(
        root, lambda block: _fold_loads(block) + _remove_dead_stores(block),
        "MemrefAccessScanPattern")


def oracle_eliminate_common_subexpressions(root):
    return scan_blocks(root, _cse_block, "CSEScanPattern")


# -- the comparison -----------------------------------------------------------------------

#: Pass name -> (the pass, its oracle or None when it is not a block scan).
PASSES = {
    "canonicalize": (canonicalize, None),
    "simplify-affine-if": (simplify_affine_ifs, None),
    "affine-store-forward": (forward_stores, oracle_forward_stores),
    "simplify-memref-access": (simplify_memref_accesses,
                               oracle_simplify_memref_accesses),
    "cse": (eliminate_common_subexpressions,
            oracle_eliminate_common_subexpressions),
}

SCANS_ONLY = "affine-store-forward,simplify-memref-access,cse"

#: The three cleanup pipelines of e045514 under the names they had there;
#: the one built in today is four passes of the one it called ``thorough``,
#: which was built in until the other five were measured to rewrite nothing.
PIPELINES = {"default": SIX_PASS, "light": LIGHT, "thorough": PARENT_TAIL}


def _observed(run, func_op):
    """What one scan pass leaves: count, hits / misses, IR, use orders."""
    with obs.session() as session:
        count = run(func_op)
    return (count, pattern_stats_of(session.metrics.counters)[0],
            *_ir_signature(func_op))


def assert_scans_match_oracle(module, spec):
    """Run ``spec`` on two clones of ``module``, the scans of one side being
    the oracle's, and compare after every scan pass.  Returns the rewrites
    each scan pass applied."""
    ours = module.clone().functions()[0]
    theirs = module.clone().functions()[0]
    counts = []
    for position, name in enumerate(spec.split(",")):
        run, oracle = PASSES[name]
        if oracle is None:
            run(ours)
            run(theirs)
            continue
        observed, expected = _observed(run, ours), _observed(oracle, theirs)
        assert observed == expected, f"after {name} (pass {position} of {spec})"
        counts.append(observed[0])
    return counts


class TestScansMatchTheScansTheyReplaced:
    def test_the_oracle_covers_every_registered_pipeline(self):
        assert CLEANUP_PIPELINES == {"default": CLEANUP_PIPELINE}
        for spec in (CLEANUP_PIPELINE, *PIPELINES.values()):
            assert set(spec.split(",")) <= set(PASSES)

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    @pytest.mark.parametrize("key", sorted(GOLDEN_CORPUS))
    def test_golden_corpus(self, key, pipeline):
        kernel, size, point = GOLDEN_CORPUS[key]
        module = compile_kernel(kernel, size)
        func_op = module.functions()[0]
        canonicalize(func_op)
        run_design_point_prefix(func_op, point.loop_perfectization,
                                point.remove_variable_bound)
        # Unrolled as at 2f7637c, which left every duplicate copy to the
        # cleanup: the cse of every pipeline has work to agree on.
        with _unrolling_as_at_2f7637c():
            run_design_point_suffix(func_op, point.perm_map, point.tile_sizes,
                                    point.target_ii)
        counts = assert_scans_match_oracle(module, PIPELINES[pipeline])
        if key == "gemm8_unrolled":
            assert all(counts[:3])  # every scan had work to agree on

    @pytest.mark.parametrize("kernel", TABLE3_ROWS)
    def test_table3_kernels_under_every_prefix_tiling_and_pipeline(self, kernel):
        base = compile_kernel(kernel, 4)
        rewrites = 0
        for perfectize, rvb in itertools.product((False, True), repeat=2):
            prefixed = base.clone()
            func_op = prefixed.functions()[0]
            canonicalize(func_op)
            run_design_point_prefix(func_op, perfectize, rvb)
            depth = len(loop_band_from(outermost_loops(func_op)[0]))
            for tiles in itertools.product((1, 2, 4), repeat=depth):
                staged = prefixed.clone()
                run_design_point_suffix(staged.functions()[0],
                                        tuple(range(depth)), tiles, 1)
                for spec in PIPELINES.values():
                    rewrites += sum(assert_scans_match_oracle(staged, spec))
        assert rewrites

    @pytest.mark.parametrize("name", ["access-before-nested-loop",
                                      "if-between-store-and-load",
                                      "loaded-index-used-in-nested-block",
                                      "shared-and-equal-attribute-dicts",
                                      "write-only-alloc-in-nested-block"])
    def test_hand_built_blocks(self, name):
        module, expected = HAND_BUILT[name]()
        ir.verify(module)
        # Twice: the second round meets what the first one exposed.
        counts = assert_scans_match_oracle(module, f"{SCANS_ONLY},{SCANS_ONLY}")
        assert counts[:3] == expected


# -- hand-built blocks ----------------------------------------------------------------------


def _finish(module, func_op, builder):
    builder.set_insertion_point_to_end(func_op.body)
    builder.insert(func.ReturnOp())
    return module


def _access_before_nested_loop():
    """A[0] = 2; x = A[0]; p = B[0]; for i { B[i] += B[i] }; y = A[0];
    q = B[0]; for j { A[j] += A[j] }; z = A[0]; z2 = A[0]; r = B[0];
    OUT[0] = x + p + y + q + z + z2 + r.  Each loop is met with state in
    hand and takes one buffer's away; the loop bodies start with none."""
    module, func_op, builder = _function([MemRefType((4,), f32)] * 3)
    A, B, OUT = func_op.arguments
    zero = builder.insert(arith.ConstantOp(0, index)).result()
    two = builder.insert(arith.ConstantOp(2.0, f32)).result()
    builder.insert(AffineStoreOp(two, A, [zero]))
    loaded = [builder.insert(AffineLoadOp(buffer, [zero])).result()
              for buffer in (A, B)]
    _touch(builder, B, [_loop(builder, 0, 4).induction_variable])
    builder.set_insertion_point_to_end(func_op.body)
    loaded += [builder.insert(AffineLoadOp(buffer, [zero])).result()
               for buffer in (A, B)]
    _touch(builder, A, [_loop(builder, 0, 4).induction_variable])
    builder.set_insertion_point_to_end(func_op.body)
    loaded += [builder.insert(AffineLoadOp(buffer, [zero])).result()
               for buffer in (A, A, B)]
    total = loaded[0]
    for value in loaded[1:]:
        total = builder.insert(arith.AddFOp(total, value)).result()
    builder.insert(AffineStoreOp(total, OUT, [zero]))
    # x and y forward from the store, z cannot; z2 folds into z and r into
    # q, but q not into p.
    return _finish(module, func_op, builder), [2, 2, 0]


def _if_between_store_and_load():
    """A[0] = 2; B[0] = 2; if (...) { A[1] = 2 }; OUT[0] = A[0] + B[0]."""
    module, func_op, builder = _function([MemRefType((4,), f32)] * 3)
    A, B, OUT = func_op.arguments
    zero = builder.insert(arith.ConstantOp(0, index)).result()
    one = builder.insert(arith.ConstantOp(1, index)).result()
    two = builder.insert(arith.ConstantOp(2.0, f32)).result()
    builder.insert(AffineStoreOp(two, A, [zero]))
    builder.insert(AffineStoreOp(two, B, [zero]))
    branch = builder.insert(AffineIfOp(
        IntegerSet.non_negative(1, dim(0) - 1), [one]))
    builder.set_insertion_point_to_end(branch.then_block)
    builder.insert(AffineStoreOp(two, A, [one]))
    builder.set_insertion_point_to_end(func_op.body)
    a = builder.insert(AffineLoadOp(A, [zero])).result()
    b = builder.insert(AffineLoadOp(B, [zero])).result()
    total = builder.insert(arith.AddFOp(a, b)).result()
    builder.insert(AffineStoreOp(total, OUT, [zero]))
    return _finish(module, func_op, builder), [1, 0, 0]  # B's load only


def _loaded_index_used_in_nested_block():
    """i = I[0]; j = I[0]; A[i] = 2; for k { A[j] = 3 }; A[i] = 2; A[j] = 3:
    folding j into i rewrites an index inside the loop and makes the last
    two stores one address."""
    module, func_op, builder = _function(
        [MemRefType((4,), index), MemRefType((4,), f32)])
    I, A = func_op.arguments
    zero = builder.insert(arith.ConstantOp(0, index)).result()
    two = builder.insert(arith.ConstantOp(2.0, f32)).result()
    three = builder.insert(arith.ConstantOp(3.0, f32)).result()
    i = builder.insert(memref.LoadOp(I, [zero])).result()
    j = builder.insert(memref.LoadOp(I, [zero])).result()
    builder.insert(memref.StoreOp(two, A, [i]))
    _loop(builder, 0, 2)
    builder.insert(memref.StoreOp(three, A, [j]))
    builder.set_insertion_point_to_end(func_op.body)
    builder.insert(memref.StoreOp(two, A, [i]))
    builder.insert(memref.StoreOp(three, A, [j]))
    return _finish(module, func_op, builder), [0, 2, 0]


def _shared_and_equal_attribute_dicts():
    """Four applies of one map on one operand: a clone (sharing the attribute
    dict of its source) and two built apart (equal dicts); a fifth differs.
    The scans address the four as one index, as ``cse`` merges them: three
    loads forward from the store before them and three stores are
    overwritten, in the first round."""
    module, func_op, builder = _function([MemRefType((64,), f32), index])
    buffer, n = func_op.arguments
    first = builder.insert(AffineApplyOp(AffineMap(1, 0, [dim(0) * 2 + 1]), [n]))
    clone = builder.insert(first.clone())
    assert clone._attributes is first._attributes
    apart = [builder.insert(AffineApplyOp(AffineMap(1, 0, [dim(0) * 2 + 1]), [n]))
             for _ in range(2)]
    assert apart[0]._attributes is not apart[1]._attributes
    other = builder.insert(AffineApplyOp(AffineMap(1, 0, [dim(0) * 2]), [n]))
    for apply_op in (first, clone, *apart, other):
        _touch(builder, buffer, [apply_op.result()])
    return _finish(module, func_op, builder), [3, 3, 3]


def _write_only_alloc_in_nested_block():
    """A write-only buffer allocated inside a loop body, another one (with a
    dealloc) in the function body, and one that is read."""
    module, func_op, builder = _function([MemRefType((4,), f32)])
    (OUT,) = func_op.arguments
    buffer_type = MemRefType((4,), f32)
    zero = builder.insert(arith.ConstantOp(0, index)).result()
    two = builder.insert(arith.ConstantOp(2.0, f32)).result()
    outer = builder.insert(memref.AllocOp(buffer_type)).result()
    builder.insert(AffineStoreOp(two, outer, [zero]))
    loop = _loop(builder, 0, 4)
    nested = builder.insert(memref.AllocOp(buffer_type)).result()
    read = builder.insert(memref.AllocOp(buffer_type)).result()
    builder.insert(AffineStoreOp(two, nested, [loop.induction_variable]))
    builder.insert(AffineStoreOp(two, read, [zero]))
    builder.insert(AffineStoreOp(two, outer, [loop.induction_variable]))
    value = builder.insert(AffineLoadOp(read, [loop.induction_variable])).result()
    builder.insert(AffineStoreOp(value, OUT, [loop.induction_variable]))
    builder.set_insertion_point_to_end(func_op.body)
    builder.insert(memref.DeallocOp(outer))
    return _finish(module, func_op, builder), [2, 0, 0]


HAND_BUILT = {
    "access-before-nested-loop": _access_before_nested_loop,
    "if-between-store-and-load": _if_between_store_and_load,
    "loaded-index-used-in-nested-block": _loaded_index_used_in_nested_block,
    "shared-and-equal-attribute-dicts": _shared_and_equal_attribute_dicts,
    "write-only-alloc-in-nested-block": _write_only_alloc_in_nested_block,
}

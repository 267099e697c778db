"""What a whole-model sweep costs besides its evaluations, against what it
replaced.

The model coordinator moves each node's function into its own module
instead of cloning it, shares constant maps and default layouts, composes
the model frontier without building the points Pareto pruning drops,
renders ``frontier_json`` without the pure-Python ``json`` encoder and
writes records without ``dataclasses.asdict``; ``best_point`` ranks by
``ExplorationPolicy.finalize_rank`` instead of a loop of its own.  The
replaced code is frozen below as the oracle: the same frontiers, truncation
counts, selected points, JSON bytes and record encodings.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.affine.expr import AffineConstantExpr
from repro.affine.map import AffineMap
from repro.dse.pareto import ParetoPoint, pareto_frontier
from repro.dse.runtime import SweepConfig, compose_model_frontier
from repro.dse.runtime import model as runtime_model
from repro.dse.runtime.model import (ModelDSEResult, ModelFrontierPoint,
                                     _canonical_json, _staged_tasks)
from repro.dse.runtime.records import EvaluationRecord
from repro.dse.runtime.worker import KernelContext
from repro.dse.space import KernelDesignPoint, KernelDesignSpace, ir_digest
from repro.estimation import VU9P_SLR
from repro.estimation.estimator import QoRResult
from repro.estimation.resources import ResourceUsage
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.printer import print_op
from repro.ir.types import MemRefType, PartitionKind, build_partition_map, f32
from repro.pipeline import explore_dnn
from repro.tools.driver import main

from test_dnn_dse import tiny_model

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "vgg16_slice_sweep.json")


def _printed(op) -> str:
    return print_op(op, stable_ids=True)


# -- the replaced code, frozen ----------------------------------------------------------------


def _frozen_compose(node_order, node_results, frontier_cap=64, platform=None):
    """``compose_model_frontier`` as it stood before: every (combination,
    record) pair built as a point, then Pareto-pruned."""
    if not node_order:
        return [], 0
    combos = [ModelFrontierPoint(latency=0, interval=0, resources=ResourceUsage(),
                                 choices=())]
    truncated = 0
    for name in node_order:
        if platform is None:
            records = node_results[name].frontier_records()
        else:
            records = node_results[name].frontier_records_for(platform)
        if not records:
            continue
        merged = [
            ModelFrontierPoint(
                latency=combo.latency + record.qor.latency,
                interval=max(combo.interval, record.qor.latency),
                resources=combo.resources + record.qor.resources,
                choices=combo.choices + ((name, tuple(record.encoded)),),
            )
            for combo in combos
            for record in records
        ]
        pruned = _frozen_pareto_prune(merged)
        if frontier_cap and len(pruned) > frontier_cap:
            truncated += len(pruned) - frontier_cap
            pruned = _frozen_downsample(pruned, frontier_cap)
        combos = pruned
    return combos, truncated


def _frozen_downsample(points, cap):
    if cap <= 1:
        return [points[-1]]
    last = len(points) - 1
    indices = sorted({round(i * last / (cap - 1)) for i in range(cap)})
    return [points[i] for i in indices]


def _frozen_pareto_prune(points):
    wrapped = [
        ParetoPoint(latency=float(point.latency), area=float(point.resources.dsp),
                    encoded=_frozen_flat_choices(point), payload=point)
        for point in points
    ]
    return [wrapper.payload for wrapper in pareto_frontier(wrapped)]


def _frozen_flat_choices(point):
    flat = []
    for _, encoded in point.choices:
        flat.extend(encoded)
    return tuple(flat)


def _frozen_record_json(record):
    """``EvaluationRecord.to_json_dict`` as it stood before
    (``dataclasses.asdict`` for the resources)."""
    data = {
        "encoded": list(record.encoded),
        "point": {
            "loop_perfectization": record.point.loop_perfectization,
            "remove_variable_bound": record.point.remove_variable_bound,
            "perm_map": list(record.point.perm_map),
            "tile_sizes": list(record.point.tile_sizes),
            "target_ii": record.point.target_ii,
            "pipeline": record.point.pipeline,
        },
        "qor": None if record.qor is None else {
            "latency": record.qor.latency,
            "interval": record.qor.interval,
            "resources": dataclasses.asdict(record.qor.resources),
        },
        "achieved_ii": record.achieved_ii,
    }
    if record.point.platform:
        data["point"]["platform"] = record.point.platform
    if record.platform_hash:
        data["platform_hash"] = record.platform_hash
    if not record.ok:
        data["status"] = record.status
        data["error"] = record.error
    return data


def _frozen_split(stage_funcs):
    """The node split as it stood before: each function deep-cloned."""
    modules = []
    for func_op in stage_funcs:
        module = ModuleOp(func_op.get_attr("sym_name"))
        module.append(func_op.clone())
        modules.append(module)
    return modules


# -- composition ------------------------------------------------------------------------------


class _Frontiers:
    """A node's result as composition reads it: a frontier per platform."""

    def __init__(self, records):
        self._records = records

    def frontier_records(self):
        return self._records

    def frontier_records_for(self, platform):
        return [record for record in self._records
                if record.point.platform == platform]


def _record(latency, dsp, encoded, platform=""):
    return EvaluationRecord(
        encoded=tuple(encoded),
        point=KernelDesignPoint(False, False, (0,), (1,), 1, platform=platform),
        qor=QoRResult(latency=latency, interval=latency,
                      resources=ResourceUsage(dsp=dsp, lut=latency % 7,
                                              memory_bits=dsp * 3)))


def _random_nodes(seed):
    """Seeded per-node frontiers with many (latency, DSP) ties and choice
    vectors of different lengths (so a flattened vector can tie too)."""
    rng = random.Random(seed)
    node_order = [f"node{index}" for index in range(rng.randint(1, 6))]
    results = {}
    for name in node_order:
        encodings = set()
        while len(encodings) < rng.randint(1, 9):
            encodings.add(tuple(rng.randrange(3)
                                for _ in range(rng.randint(1, 3))))
        results[name] = _Frontiers([
            _record(rng.randint(1, 6), rng.randint(0, 4), encoded,
                    platform=rng.choice(("a", "b")))
            for encoded in sorted(encodings)])
    return node_order, results


def _tying_nodes(seed):
    """Seeded per-node frontiers that tie at every merge: two options per
    node whose (latency, DSP) sums equal those of other combinations (the
    same pair of trade-offs, swapped, or one trade-off twice), single-option
    nodes in between, and choice vectors of different lengths."""
    rng = random.Random(seed)
    node_order, results = [], {}
    trade_offs = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(2)]
    for index in range(rng.randint(3, 9)):
        name = f"node{index}"
        node_order.append(name)
        if index % 2:
            pair = [(rng.randint(1, 3), rng.randint(0, 2))]
        elif rng.random() < 0.25:
            pair = [trade_offs[0]] * 2
        else:
            pair = rng.sample(trade_offs, 2)
        # Options of one node differ in length, so that a tie between two
        # combinations compares flattened vectors cut at different places.
        encodings = [tuple(rng.randrange(2) for _ in range(length))
                     for length in rng.sample([1, 2, 3], len(pair))]
        results[name] = _Frontiers([
            _record(latency, dsp, encoded, platform=rng.choice(("a", "b")))
            for (latency, dsp), encoded in zip(pair, encodings)])
    return node_order, results


def _assert_composition_equals_the_materialising_one(nodes, cap, platform):
    for seed in range(40):
        node_order, results = nodes(seed)
        expected = _frozen_compose(node_order, results, frontier_cap=cap,
                                   platform=platform)
        assert compose_model_frontier(node_order, results, frontier_cap=cap,
                                      platform=platform) == expected, seed


@pytest.mark.parametrize("cap", [0, 1, 2, 64])
@pytest.mark.parametrize("platform", [None, "a"])
def test_composition_equals_the_materialising_one(cap, platform):
    _assert_composition_equals_the_materialising_one(_random_nodes, cap,
                                                     platform)


@pytest.mark.parametrize("cap", [0, 1, 2, 64])
@pytest.mark.parametrize("platform", [None, "a"])
def test_composition_of_nodes_that_tie_at_every_merge(cap, platform):
    _assert_composition_equals_the_materialising_one(_tying_nodes, cap,
                                                     platform)


def test_the_tying_nodes_tie():
    # Guards the generator above: every two-option merge after a node's
    # first must meet a (latency, DSP) sum some other combination reached.
    merges = tied = 0
    for seed in range(40):
        node_order, results = _tying_nodes(seed)
        sums = {(0, 0): 1}
        for name in node_order:
            records = results[name].frontier_records()
            merged: dict = {}
            for (latency, dsp), count in sums.items():
                for record in records:
                    key = (latency + record.qor.latency, dsp + record.qor.dsp)
                    merged[key] = merged.get(key, 0) + count
            if len(records) == 2 and name != node_order[0]:
                merges += 1
                tied += any(count > 1 for count in merged.values())
            sums = merged
    assert tied == merges > 40


def test_a_tie_in_latency_and_dsp_breaks_on_the_choice_vector():
    results = {
        "a": _Frontiers([_record(5, 2, (1,)), _record(5, 2, (0,))]),
        "b": _Frontiers([_record(1, 1, (2, 0)), _record(1, 1, (0, 9))]),
    }
    frontier, truncated = compose_model_frontier(["a", "b"], results)
    assert truncated == 0
    assert [point.choices for point in frontier] \
        == [(("a", (0,)), ("b", (0, 9)))]
    assert frontier == _frozen_compose(["a", "b"], results)[0]


# -- best_point -------------------------------------------------------------------------------


def _frozen_best_point(frontier, platform):
    """``ModelDSEResult.best_point`` as it stood before: the first frontier
    point fitting the platform, else the smallest by (DSP, choices)."""
    if not frontier:
        return None
    for point in frontier:
        if platform.fits(point.resources, memory_margin=float("inf")):
            return point
    return min(frontier,
               key=lambda p: (p.resources.dsp, _frozen_flat_choices(p)))


def _model_result(frontier, platform):
    return ModelDSEResult(model="m", platform=platform, graph_level=0, seed=0,
                          node_order=[], skipped=[], node_results={},
                          frontier=frontier, truncated=0, wall_seconds=0.0)


@pytest.mark.parametrize("nodes", [_random_nodes, _tying_nodes])
@pytest.mark.parametrize("cap", [0, 2, 64])
def test_best_point_is_the_first_fitting_one_else_the_smallest(nodes, cap):
    fitted = fallbacks = 0
    for seed in range(40):
        node_order, results = nodes(seed)
        frontier, _ = compose_model_frontier(node_order, results,
                                             frontier_cap=cap)
        dsps = [point.resources.dsp for point in frontier]
        for budget in range(min(dsps) - 1, max(dsps) + 2):
            platform = dataclasses.replace(VU9P_SLR, dsp=budget)
            best = _model_result(frontier, platform).best_point()
            assert best == _frozen_best_point(frontier, platform), \
                (seed, budget)
            if platform.fits(best.resources, memory_margin=float("inf")):
                fitted += 1
            else:
                fallbacks += 1
    assert fitted and fallbacks


def test_best_point_breaks_a_dsp_tie_on_the_choices_and_has_none_to_pick():
    def point(latency, dsp, *choices):
        return ModelFrontierPoint(latency=latency, interval=latency,
                                  resources=ResourceUsage(dsp=dsp),
                                  choices=choices)

    frontier = [point(3, 9, ("a", (1, 0)), ("b", (2,))),
                point(4, 9, ("a", (1,)), ("b", (0, 0))),
                point(5, 9, ("a", (1, 0)), ("b", (1,)))]
    nothing_fits = dataclasses.replace(VU9P_SLR, dsp=8)
    best = _model_result(frontier, nothing_fits).best_point()
    assert best is frontier[1]
    assert best == _frozen_best_point(frontier, nothing_fits)
    assert _model_result([], VU9P_SLR).best_point() is None


# -- frontier_json ----------------------------------------------------------------------------


def _json_oracle(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=2 ** 63, max_value=2 ** 70)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text())
json_trees = st.recursive(
    json_scalars | st.lists(st.integers(), max_size=5),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(json_trees)
@example({"a": [1, 2], "b": {"c": [1, 2], "d": [[1, 2]]}, "e": [True, 1]})
@example({"é\n\"": [-(2 ** 64), 0, 2 ** 64], "": [], "x": {}, "y": [[], {}]})
# Three lists the memo key (key, *item) hashes alike: a writer that checked
# only the first element's type would take the last two for int lists and
# render True as ``True``.
@example({"k": [1, 2], "j": {"k": [1, 2.0], "i": {"k": [1, True]}}})
def test_the_writer_equals_json_dumps(tree):
    assert _canonical_json(tree) == _json_oracle(tree)


#: One key and one list of ints, repeated at several depths, next to the
#: values that compare equal to that list but render differently.
repeating_trees = st.recursive(
    st.sampled_from([[1, 2], [True, 2], [1.0, 2], (1, 2), [1], 1, "k"]),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(["k", "j"]), children,
                                        max_size=2)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(repeating_trees)
@example({"k": [1, 2], "j": {"k": [1, 2], "j": [{"k": [1, 2]}, [1, 2]]}})
@example({"k": [1, 2], "j": {"k": [True, 2], "j": {"k": [1.0, 2]}}})
@example([[1, 2], {"k": [1, 2]}, [[1, 2], {"k": (1, 2)}]])
def test_the_writer_equals_json_dumps_where_keys_and_lists_repeat(tree):
    assert _canonical_json(tree) == _json_oracle(tree)


def test_the_writer_equals_json_dumps_on_the_vgg16_slice_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        data = json.load(handle)
    assert _canonical_json(data) == _json_oracle(data)


def test_the_vgg16_warm_artifact(tmp_path):
    """The whole-model sweep of the end-to-end benchmark, run cold and then
    against the cache it filled: the warm artifact is the cold one, what
    ``json.dumps`` writes, composed as the materialising composition
    composes, and the bytes pinned below."""
    import hashlib

    from repro.dse.runtime import EstimateCache

    def sweep():
        cache = EstimateCache(str(tmp_path / "estimates.jsonl"))
        try:
            return explore_dnn("vgg16", VU9P_SLR, graph_level=7, jobs=1,
                               seed=2022, cache=cache,
                               checkpoint_dir=str(tmp_path / "checkpoints"),
                               checkpoint_every=16)
        finally:
            cache.close()

    cold_text = sweep().frontier_json()
    warm = sweep()
    assert warm.cache_misses == 0
    text = warm.frontier_json()
    assert text == cold_text == _json_oracle(warm.to_json_dict())
    # Taken again when the cleanup tail was cut to four passes: the text
    # differs from the one before in its nodes' fingerprints alone.
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] \
        == "13ec3a4652b4253e"
    assert (warm.frontier, warm.truncated) \
        == _frozen_compose(warm.node_order, warm.node_results)


def test_a_dnn_smoke_artifact_is_what_json_dumps_writes(tmp_path, capsys):
    path = tmp_path / "frontier.json"
    assert main(["dnn", "vgg16", "--graph-level", "7", "--dse", "--smoke",
                 "--frontier-out", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text(encoding="utf-8")
    assert text == _json_oracle(json.loads(text))


# -- record encoding --------------------------------------------------------------------------


def _records():
    resources = ResourceUsage(dsp=3, lut=40, ff=5, memory_bits=2048, bram18k=2)
    healthy = EvaluationRecord(
        encoded=(1, 0, 2, 3), point=KernelDesignPoint(True, False, (1, 0), (4, 2), 2),
        qor=QoRResult(latency=120, interval=60, resources=resources),
        achieved_ii=2)
    quarantined = EvaluationRecord.quarantined(
        (0, 1, 0, 0), KernelDesignPoint(False, True, (0, 1), (1, 1), 1),
        "crash: worker died")
    multi_platform = dataclasses.replace(
        healthy, point=dataclasses.replace(healthy.point, platform="zcu102"),
        platform_hash="0123abcd")
    return [healthy, quarantined, multi_platform]


@pytest.mark.parametrize("record", _records(),
                         ids=["healthy", "quarantined", "multi-platform"])
def test_record_encoding_equals_the_asdict_one(record):
    expected = _frozen_record_json(record)
    assert record.to_json_dict() == expected
    assert json.dumps(record.to_json_dict()) == json.dumps(expected)
    assert EvaluationRecord.from_json_dict(record.to_json_dict()) == record


# -- moved, not cloned ------------------------------------------------------------------------


SMALL = dict(seed=7, batch_size=2, num_samples=3, max_iterations=4)


def test_splitting_the_nodes_clones_no_operation(monkeypatch):
    clone, node_tasks = Operation.clone, runtime_model._node_tasks
    counts = {"splits": 0, "clones": 0}
    splitting = False

    def counted_clone(op, value_map=None):
        counts["clones"] += splitting
        return clone(op, value_map)

    def counted_split(*args):
        nonlocal splitting
        counts["splits"] += 1
        splitting = True
        try:
            return node_tasks(*args)
        finally:
            splitting = False

    monkeypatch.setattr(Operation, "clone", counted_clone)
    monkeypatch.setattr(runtime_model, "_node_tasks", counted_split)
    result = explore_dnn(tiny_model(), VU9P_SLR, graph_level=3, **SMALL)
    assert result.frontier
    assert counts == {"splits": 1, "clones": 0}


def test_a_callers_module_is_left_as_it_was():
    model = tiny_model()
    before = _printed(model)
    explore_dnn(model, VU9P_SLR, graph_level=3, **SMALL)
    assert _printed(model) == before


def test_each_node_function_is_moved_into_its_own_module():
    tasks, node_order, _ = _staged_tasks(tiny_model(), 3, SweepConfig(**SMALL))
    assert node_order == [task.key for task in tasks]
    for task in tasks:
        (func_op,) = task.module.functions()
        assert list(task.module.body.operations) == [func_op]
        assert func_op.parent is task.module.body
        assert func_op.get_attr("sym_name") == task.func_name
        assert task.space.ir_digest == ir_digest(func_op)


def _classes(digests: dict[str, str]) -> set[frozenset]:
    """The partition of node names ``digests`` induces."""
    groups: dict[str, set] = {}
    for name, digest in digests.items():
        groups.setdefault(digest, set()).add(name)
    return {frozenset(names) for names in groups.values()}


@pytest.mark.parametrize("model,graph_level", [("tinynet", 3)] + [
    (model, graph_level) for model in ("vgg16", "resnet18", "mobilenet")
    for graph_level in range(8)])
def test_moved_nodes_equal_cloned_ones(model, graph_level):
    """Every task module, a moved representative or a relabelled clone,
    prints as the direct lowering of the whole model; and two nodes share a
    graph-level class key exactly when their lowered digests are equal (a
    false merge would be a wrong answer)."""
    from repro.frontend.models import build_model
    from repro.pipeline import prepare_dnn_stages
    from repro.transforms import lower_graph_to_loops

    build = tiny_model if model == "tinynet" else lambda: build_model(model)
    reference = build()
    prepare_dnn_stages(reference, graph_level)
    top = reference.functions()[0]
    stage_funcs = [func_op for func_op in reference.functions()
                   if func_op is not top] or [top]
    keys = {func_op.get_attr("sym_name"): ir_digest(func_op)
            for func_op in stage_funcs}
    lower_graph_to_loops(reference)
    assert _classes(keys) == _classes({
        func_op.get_attr("sym_name"): ir_digest(func_op)
        for func_op in stage_funcs})
    cloned = _frozen_split(stage_funcs)
    tasks, _, skipped = _staged_tasks(build(), graph_level,
                                      SweepConfig(**SMALL))
    printed = {module.functions()[0].get_attr("sym_name"): _printed(module)
               for module in cloned}
    assert {task.key: _printed(task.module) for task in tasks} \
        == {name: text for name, text in printed.items() if name not in skipped}


def test_a_moved_node_pickles_through_a_pool_context():
    tasks, _, _ = _staged_tasks(tiny_model(), 3, SweepConfig(**SMALL))
    for task in tasks:
        context = KernelContext(module=task.module, func_name=task.func_name,
                                platform=VU9P_SLR, space=task.space)
        revived = pickle.loads(pickle.dumps(context))
        assert _printed(revived.module) == _printed(task.module)
        assert ir_digest(revived.module.functions()[0]) == task.space.ir_digest
        assert KernelDesignSpace.from_function(
            revived.module.functions()[0]).fingerprint() \
            == task.space.fingerprint()


# -- shared maps ------------------------------------------------------------------------------


def test_one_constant_map_per_value():
    assert AffineMap.constant_map(7) is AffineMap.constant_map(7)
    assert AffineMap.constant_map(7) is not AffineMap.constant_map(8)
    assert AffineMap.constant_map(7) == AffineMap(0, 0, [AffineConstantExpr(7)])
    assert str(AffineMap.constant_map(-3)) == "affine_map<() -> (-3)>"


def test_memrefs_of_one_shape_share_their_default_layout():
    first, second = MemRefType((4, 8), f32), MemRefType((4, 8), f32)
    assert first.layout_map is second.layout_map
    assert first.layout_map == build_partition_map(
        (4, 8), [(PartitionKind.NONE, 1)] * 2)
    assert MemRefType((8, 4), f32).layout_map is not first.layout_map


def test_with_partition_still_builds_the_partitioned_map():
    memref = MemRefType((16, 8), f32)
    default = memref.layout_map
    partitioned = memref.with_partition([(PartitionKind.CYCLIC, 2),
                                         (PartitionKind.NONE, 1)])
    assert partitioned.layout_map == build_partition_map(
        (16, 8), [(PartitionKind.CYCLIC, 2), (PartitionKind.NONE, 1)])
    assert partitioned.layout_map.evaluate([5, 3]) == (1, 0, 2, 3)
    assert memref.layout_map is default
    assert MemRefType((16, 8), f32).layout_map is default
    assert partitioned.with_partition(memref.partition).layout_map is default

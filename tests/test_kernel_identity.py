"""Kernel identity: what ``ir_digest`` hashes, which labels it elides and
why that is sound, and what the scheduler does with structurally identical
kernels (representative-first sweeps: a member with the representative's
budget takes a copy of its result).

A new label attribute is declared in ``repro.dse.space.LABEL_ATTRS`` *and*
added to ``relabelled`` below — the perturbation tests are what prove that
eliding it never changes an estimate.
"""

import json
import os
import random
import sys

import pytest

from repro import obs
from repro.dialects.affine_ops import outermost_loops
from repro.dse.runtime import (
    EstimateCache,
    FaultPlan,
    KernelTask,
    SupervisionPolicy,
    SweepConfig,
)
from repro.dse.runtime.model import _staged_tasks
from repro.dse.runtime.scheduler import explore_kernels
from repro.dse.runtime.worker import KernelContext, evaluate_encoded
from repro.dse.space import (
    LABEL_ATTRS,
    ROOT_LABEL_ATTRS,
    KernelDesignSpace,
    ir_digest,
)
from repro.estimation import VU9P_SLR, XC7Z020
from repro.frontend.models import build_model
from repro.ir.module import ModuleOp
from repro.ir.types import MemRefType, f64
from repro.kernels import KERNEL_NAMES, kernel_source
from repro.obs.report import render_run_summary
from repro.pipeline import compile_c, explore_dnn, prepare_dnn_stages
from repro.tools.driver import main
from repro.transforms import lower_graph_to_loops

import cleanups
from conftest import GEMM_SOURCE, compile_source

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "vgg16_slice_sweep.json")


# -- helpers --------------------------------------------------------------------------------


def single_function_module(func_op) -> ModuleOp:
    module = ModuleOp(func_op.get_attr("sym_name"))
    module.append(func_op.clone())
    return module


def relabelled(func_op) -> ModuleOp:
    """A copy of ``func_op`` in its own module with every declared label
    perturbed: another symbol name, another stage, other buffer names and
    other layer names (on the function and on every op that has one)."""
    assert LABEL_ATTRS == {"dataflow_stage", "buffer_name", "layer_name"}
    assert ROOT_LABEL_ATTRS == {"sym_name"}
    module = single_function_module(func_op)
    copy = module.functions()[0]
    copy.set_attr("sym_name", copy.get_attr("sym_name") + "_relabelled")
    copy.set_attr("dataflow_stage", (copy.get_attr("dataflow_stage") or 0) + 41)
    for index, op in enumerate(copy.walk()):
        if op.name == "memref.alloc":
            op.set_attr("buffer_name", f"renamed_{index}")
        if op is copy or op.has_attr("layer_name"):
            op.set_attr("layer_name", f"layer_{index}")
    return module


def sampled_records(module: ModuleOp, platform, seed: int, per_pipeline: int = 1):
    """Records of seeded random points, ``per_pipeline`` for each of the
    built-in cleanup pipeline and the two retired ones."""
    func_op = module.functions()[0]
    with cleanups.registered():
        space = KernelDesignSpace.from_function(func_op)
        context = KernelContext(
            module=module, func_name=func_op.get_attr("sym_name"),
            platform=platform, space=space)
        position = space.dimensions.index(space.pipeline_options)
        rng = random.Random(seed)
        records = []
        for pipeline in range(len(space.pipeline_options)):
            for _ in range(per_pipeline):
                encoded = list(space.random_point(rng))
                encoded[position] = pipeline
                records.append(evaluate_encoded(context, tuple(encoded)))
    assert {record.point.pipeline for record in records} \
        == {"default", *cleanups.RETIRED}
    return records


def staged_nodes(model: str, graph_level: int = 7):
    """The explorable dataflow nodes of a bundled model, lowered to loops."""
    module = build_model(model)
    prepare_dnn_stages(module, graph_level)
    top = module.functions()[0]
    stages = [func_op for func_op in module.functions() if func_op is not top]
    lower_graph_to_loops(module)
    return top, [func_op for func_op in stages if outermost_loops(func_op)]


def duplicate_classes(nodes) -> list[list]:
    classes: dict[str, list] = {}
    for func_op in nodes:
        classes.setdefault(ir_digest(func_op), []).append(func_op)
    return [members for members in classes.values() if len(members) > 1]


# -- the elided labels never change an estimate ----------------------------------------------


class TestLabelsAreNotSemantic:
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_relabelled_table3_kernel_evaluates_identically(self, name):
        module = compile_c(kernel_source(name, 8), name)
        func_op = module.functions()[0]
        perturbed = relabelled(func_op)
        assert ir_digest(perturbed.functions()[0]) == ir_digest(func_op)
        assert sampled_records(perturbed, XC7Z020, seed=3, per_pipeline=2) \
            == sampled_records(single_function_module(func_op), XC7Z020,
                               seed=3, per_pipeline=2)

    @pytest.mark.parametrize("model,duplicates", [
        ("vgg16", 22), ("resnet18", 18), ("mobilenet", 12)])
    def test_every_duplicate_class_evaluates_identically(self, model,
                                                         duplicates):
        _, nodes = staged_nodes(model)
        classes = duplicate_classes(nodes)
        assert sum(len(members) - 1 for members in classes) == duplicates
        for seed, members in enumerate(classes):
            representative, member = members[0], members[-1]
            expected = sampled_records(single_function_module(representative),
                                       VU9P_SLR, seed)
            # The member the model itself contains (other names, stage and
            # buffers), and that member with its labels perturbed once more.
            assert sampled_records(single_function_module(member),
                                   VU9P_SLR, seed) == expected
            perturbed = relabelled(member)
            assert ir_digest(perturbed.functions()[0]) \
                == ir_digest(representative)
            assert sampled_records(perturbed, VU9P_SLR, seed) == expected


# -- anything structural still changes the digest --------------------------------------------


def gemm_digest(source: str = GEMM_SOURCE) -> str:
    return ir_digest(compile_source(source, "gemm").functions()[0])


class TestDigestKeepsStructure:
    @pytest.mark.parametrize("what,old,new", [
        ("memref shape", "float B[8][8]", "float B[8][16]"),
        ("element type", "float B[8][8]", "double B[8][8]"),
        ("loop bound", "k < 8", "k < 7"),
        ("operation", "C[i][j] += alpha", "C[i][j] -= alpha"),
        ("constant", "C[i][j] *= beta", "C[i][j] *= beta * 2.0"),
    ])
    def test_structural_difference_changes_the_digest(self, what, old, new):
        assert old in GEMM_SOURCE
        assert gemm_digest(GEMM_SOURCE.replace(old, new)) != gemm_digest(), what

    def test_constant_value_changes_the_digest(self):
        two = GEMM_SOURCE.replace("C[i][j] *= beta", "C[i][j] *= beta * 2.0")
        assert gemm_digest(two) != gemm_digest(two.replace("2.0", "3.0"))

    def test_argument_type_alone_changes_the_digest(self):
        func_op = compile_source(GEMM_SOURCE, "gemm").functions()[0]
        before = ir_digest(func_op)
        argument = next(arg for arg in func_op.arguments
                        if isinstance(arg.type, MemRefType))
        argument.type = MemRefType(argument.type.shape, f64)
        assert ir_digest(func_op) != before

    def test_callee_name_stays_hashed(self):
        top, _ = staged_nodes("vgg16", graph_level=4)
        before = ir_digest(top)
        call = next(op for op in top.walk() if op.name == "func.call")
        call.set_attr("callee", call.get_attr("callee") + "_other")
        assert ir_digest(top) != before

    def test_symbol_names_below_the_root_stay_hashed(self):
        module = compile_source(GEMM_SOURCE, "gemm")
        before = ir_digest(module)
        module.functions()[0].set_attr("sym_name", "gemm2")
        assert ir_digest(module) != before

    def test_undeclared_label_still_changes_the_digest(self):
        _, nodes = staged_nodes("vgg16")
        on_alloc, on_function = nodes[0], nodes[1]
        before = ir_digest(on_alloc)
        alloc = next(op for op in on_alloc.walk() if op.name == "memref.alloc")
        alloc.set_attr("debug_name", "looks harmless")
        assert ir_digest(on_alloc) != before
        before = ir_digest(on_function)
        on_function.set_attr("debug_name", "conv_1")
        assert ir_digest(on_function) != before

    def test_declared_labels_do_not(self):
        _, nodes = staged_nodes("vgg16")
        func_op = nodes[0]
        assert ir_digest(relabelled(func_op).functions()[0]) \
            == ir_digest(func_op)
        # A graph-level node, the model scheduler's class key, as well.
        module = build_model("vgg16")
        prepare_dnn_stages(module, 7)
        graph_level = module.functions()[1]
        assert any(op.has_attr("layer_name") for op in graph_level.walk())
        assert ir_digest(relabelled(graph_level).functions()[0]) \
            == ir_digest(graph_level)


# -- representative-first sweeps ------------------------------------------------------------

#: The six heaviest vgg16 nodes at graph level 7: two structurally identical
#: pairs (17/20 and 27/30) and two nodes of their own.
SLICE = dict(model="vgg16", graph_level=7, max_nodes=6)
PAIRS = {"forward_dataflow20": "forward_dataflow17",
         "forward_dataflow30": "forward_dataflow27"}


def sweep(**overrides):
    """The sweep of SLICE, with ``overrides`` of its settings."""
    settings = dict(graph_level=SLICE["graph_level"],
                    max_nodes=SLICE["max_nodes"], jobs=1, seed=7,
                    batch_size=2, checkpoint_every=16, num_samples=3,
                    max_iterations=4)
    return explore_dnn(SLICE["model"], VU9P_SLR, **{**settings, **overrides})


@pytest.fixture(scope="module")
def serial_sweep():
    return sweep()


def masked_document(result) -> dict:
    """The sweep as the golden holds it: fingerprints blanked (they moved
    with the digest) and every node's records listed."""
    document = result.to_json_dict()
    for name, node in document["nodes"].items():
        node["fingerprint"] = ""
        node["records"] = [
            record.to_json_dict() for _, record in
            sorted(result.node_results[name].records.items())]
    return json.loads(json.dumps(document))


class TestSharedSweep:
    def test_members_take_their_trajectory_from_the_representative(
            self, serial_sweep):
        shared = {name: result.shared_with
                  for name, result in serial_sweep.node_results.items()
                  if result.shared_with is not None}
        assert shared == PAIRS
        for member, representative in PAIRS.items():
            ours = serial_sweep.node_results[member]
            theirs = serial_sweep.node_results[representative]
            assert ours.fingerprint == theirs.fingerprint
            assert ours.records == theirs.records
            assert ours.evaluated_this_run == 0
            assert ours.shared_hits == ours.cache_hits == ours.num_evaluations
        assert serial_sweep.shared_nodes == 2
        assert serial_sweep.shared_points == sum(
            serial_sweep.node_results[name].num_evaluations for name in PAIRS)

    def test_sharing_needs_no_cache_and_materializes_on_the_own_module(
            self, serial_sweep):
        # No cache was configured above.
        assert serial_sweep.evaluated_this_run \
            == serial_sweep.num_evaluations - serial_sweep.shared_points
        member = serial_sweep.node_results["forward_dataflow20"]
        design = member.best_design()
        assert design.func_op.get_attr("sym_name") == "forward_dataflow20"
        assert design.qor == member.best_record.qor

    def test_distinct_kernels_run_without_any_cache(self):
        result = sweep(max_nodes=2)
        assert len(result.node_order) == 2 and result.shared_nodes == 0
        assert result.cache_hits == result.cache_misses == 0

    def test_matches_the_parent_commit_once_fingerprints_are_masked(
            self, serial_sweep):
        with open(GOLDEN, encoding="utf-8") as handle:
            assert masked_document(serial_sweep) == json.load(handle)

    def test_byte_identical_across_jobs_and_cache(self, serial_sweep, tmp_path):
        expected = serial_sweep.frontier_json()
        pooled = sweep(jobs=2)
        assert pooled.frontier_json() == expected
        counts = lambda r: (r.cache_hits, r.cache_misses, r.shared_points,
                            r.evaluated_this_run)
        assert counts(pooled) == counts(serial_sweep)
        # Without a cache a representative looks nothing up; with a cold one
        # each of its evaluations is a miss, and nothing else changes.
        assert serial_sweep.cache_misses == 0
        expected_counts = (serial_sweep.cache_hits,
                           serial_sweep.evaluated_this_run,
                           serial_sweep.shared_points,
                           serial_sweep.evaluated_this_run)
        for jobs in (1, 2):
            cache = EstimateCache(str(tmp_path / f"cache-{jobs}.jsonl"))
            cached = sweep(jobs=jobs, cache=cache)
            cache.close()
            assert cached.frontier_json() == expected
            assert counts(cached) == expected_counts

    def test_warm_persistent_cache_is_not_reported_as_sharing(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cold = sweep(cache=EstimateCache(path))
        warm = sweep(cache=EstimateCache(path))
        assert cold.shared_points > 0
        assert warm.frontier_json() == cold.frontier_json()
        assert warm.cache_hits == warm.num_evaluations
        assert warm.cache_misses == 0 and warm.shared_points == 0
        assert warm.shared_nodes == 2

    def test_resume_from_a_mid_sweep_checkpoint(self, serial_sweep, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        partial = sweep(checkpoint_dir=ckpt, checkpoint_every=1,
                        max_evaluations=2)
        assert partial.num_evaluations < serial_sweep.num_evaluations
        resumed = sweep(jobs=2, checkpoint_dir=ckpt)
        assert resumed.frontier_json() == serial_sweep.frontier_json()
        # Only representatives checkpoint; their final checkpoints restore
        # every node.
        assert sorted(os.listdir(ckpt)) == sorted(
            f"{key}.ckpt.json" for key in resumed.node_order
            if key not in PAIRS)
        again = sweep(checkpoint_dir=ckpt)
        assert again.evaluated_this_run == 0
        assert again.frontier_json() == serial_sweep.frontier_json()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashing_evaluations_leave_the_frontier_alone(
            self, serial_sweep, tmp_path, jobs):
        plan = FaultPlan(mode="crash", select=3, times=1,
                         state_dir=str(tmp_path / "ledger"))
        faulty = sweep(jobs=jobs, faults=plan)
        assert os.listdir(plan.state_dir)  # faults fired
        assert faulty.frontier_json() == serial_sweep.frontier_json()

    def test_poison_quarantine_is_identical_across_jobs(self, tmp_path):
        def poisoned(jobs):
            plan = FaultPlan(mode="poison", select=2,
                             state_dir=str(tmp_path / f"ledger-{jobs}"))
            return sweep(jobs=jobs, faults=plan,
                         supervision=SupervisionPolicy(max_retries=1))
        serial, pooled = poisoned(1), poisoned(2)
        assert sum(node.num_quarantined
                   for node in serial.node_results.values()) > 0
        assert serial.frontier_json() == pooled.frontier_json()
        assert serial.shared_points == pooled.shared_points > 0

    def test_identity_is_computed_once_per_node(self, monkeypatch):
        """Once per node is a graph-level key; the lowered function's digest
        and its design space are built once per class."""
        import repro.dse.runtime.model as model
        import repro.dse.runtime.parallel as parallel
        import repro.dse.runtime.scheduler as scheduler
        import repro.dse.space as space

        import repro.dse.incremental as incremental

        calls = {"key": 0, "digest": 0, "build": 0, "fingerprint": 0,
                 "program": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        # The graph-level class keys, the kernel-fingerprint digest (the
        # un-transformed lowered function) and the post-prefix digests
        # program identity reads, counted apart.
        monkeypatch.setattr(model, "ir_digest", counted("key", model.ir_digest))
        monkeypatch.setattr(space, "ir_digest",
                            counted("digest", space.ir_digest))
        from_function = vars(KernelDesignSpace)["from_function"].__func__
        monkeypatch.setattr(KernelDesignSpace, "from_function",
                            classmethod(counted("build", from_function)))
        monkeypatch.setattr(incremental, "ir_digest",
                            counted("program", incremental.ir_digest))
        monkeypatch.setattr(scheduler, "_kernel_fingerprint", counted(
            "fingerprint", scheduler._kernel_fingerprint))
        # The trajectory is handed its fingerprint; it has no way to make one.
        assert not hasattr(parallel, "_kernel_fingerprint")
        result = sweep()
        # One post-prefix digest per prefix key a node's uncached points
        # reach: at most four a node, whatever it had to evaluate.
        explored = sum(1 for node in result.node_results.values()
                       if node.evaluated_this_run)
        assert 0 < calls.pop("program") <= 4 * explored
        classes = len(result.node_order) - len(PAIRS)
        # Every one of vgg16's 50 nodes is keyed, the 6 kept are swept.
        assert calls == {"key": 50, "digest": classes, "build": classes,
                         "fingerprint": len(result.node_order)}

        calls.update(key=0, digest=0, build=0, fingerprint=0)
        tasks, _, _ = _staged_tasks(build_model("vgg16"), 7, SweepConfig())
        assert len(tasks) == 50
        assert calls == {"key": 50, "digest": 28, "build": 28,
                         "fingerprint": 0}
        assert len({id(task.space) for task in tasks}) == 28


class TestSharedObservability:
    def _observed(self, jobs):
        with obs.session() as session:
            result = sweep(jobs=jobs)
        spans = [span for spans in session.tracer.tracks().values()
                 for span in spans if span.name == "dse.explore"]
        return result, session.metrics.to_json_dict()["counters"], spans

    def test_counters_and_spans(self):
        result, counters, spans = self._observed(jobs=1)
        _, pooled_counters, _ = self._observed(jobs=2)
        for name in ("dse.evaluations", "dse.points", "dse.shared.nodes",
                     "dse.shared.points"):
            assert counters[name] == pooled_counters[name], name
        assert counters["dse.shared.nodes"] == result.shared_nodes == 2
        assert counters["dse.shared.points"] == result.shared_points
        # No cache: nothing is looked up, a member is a copy.
        assert not [name for name in counters if name.startswith("cache.")]
        assert not [name for name in pooled_counters
                    if name.startswith("cache.")]
        # One trajectory per class: members have no span of their own.
        assert sorted(span.args["kernel"] for span in spans) == sorted(
            key for key in result.node_order if key not in PAIRS)

    def test_report_line(self):
        summary = render_run_summary({"counters": {
            "dse.points": 21, "dse.evaluations": 14,
            "dse.shared.nodes": 1, "dse.shared.points": 7}})
        assert "shared 7 evaluations across 1 structurally identical node\n" \
            in summary + "\n"
        assert "shared" not in render_run_summary(
            {"counters": {"dse.points": 21, "dse.evaluations": 21}})

    def test_dnn_summary_reports_sharing_not_cache_hits(self, tmp_path, capsys):
        argv = ["dnn", "vgg16", "--graph-level", "7", "--dse", "--smoke",
                "--frontier-out", str(tmp_path / "frontier.json")]
        # The sharing line is the run summary's, printed once per run.
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert output.count("shared 7 evaluations across 1 structurally "
                            "identical node") == 1
        assert "cache:" not in output
        assert main(argv + ["--cache", str(tmp_path / "cache.jsonl")]) == 0
        output = capsys.readouterr().out
        assert "(cache: 14 misses)" in output  # the 7 shared are not "hits"
        assert output.count("shared 7 evaluations") == 1
        assert main(argv + ["--cache", str(tmp_path / "cache.jsonl")]) == 0
        output = capsys.readouterr().out
        assert "21 sweep hits" in output
        assert output.count("shared 0 evaluations across 1 structurally "
                            "identical node") == 1


# -- scheduling ----------------------------------------------------------------------------


def _tasks(copies: int, budgets=None, lone: bool = True) -> list[KernelTask]:
    """``copies`` relabelled gemm kernels plus (``lone``) one kernel of its own."""
    gemm = compile_source(GEMM_SOURCE, "gemm").functions()[0]
    tasks = []
    for index in range(copies):
        module = single_function_module(gemm)
        func_op = module.functions()[0]
        func_op.set_attr("sym_name", f"gemm_{index}")
        samples, iterations = (budgets or {}).get(index, (None, None))
        tasks.append(KernelTask(
            key=f"gemm_{index}", module=module, func_name=f"gemm_{index}",
            space=KernelDesignSpace.from_function(func_op),
            num_samples=samples, max_iterations=iterations))
    if not lone:
        return tasks
    other = compile_c(kernel_source("bicg", 8), "bicg")
    tasks.append(KernelTask(
        key="bicg", module=other, func_name="bicg",
        space=KernelDesignSpace.from_function(other.functions()[0])))
    return tasks


def _sweep(tasks, jobs, **overrides):
    return explore_kernels(tasks, XC7Z020, SweepConfig(
        jobs=jobs, num_samples=3, max_iterations=4, seed=5, batch_size=2,
        **overrides))


class TestRepresentativeFirst:
    def test_results_keep_task_order_and_caller_tasks_untouched(self):
        tasks = _tasks(copies=2)
        tasks.reverse()  # the lone kernel first
        results = _sweep(tasks, jobs=2)
        assert list(results) == ["bicg", "gemm_1", "gemm_0"]
        assert results["gemm_0"].shared_with == "gemm_1"
        assert results["gemm_1"].shared_with is None
        assert all(task.fingerprint == "" for task in tasks)

    def test_unequal_budgets_share_what_overlaps_deterministically(self):
        # A member with a budget of its own runs its trajectory after the
        # representative: against a cache, what overlaps is a hit.
        budgets = {0: (2, 2), 1: (3, 6), 2: (3, 4)}
        counts = lambda results: {
            key: (result.cache_hits, result.cache_misses, result.shared_hits)
            for key, result in results.items()}
        serial = _sweep(_tasks(3, budgets), jobs=1, cache=EstimateCache())
        pooled = _sweep(_tasks(3, budgets), jobs=2, cache=EstimateCache())
        assert counts(serial) == counts(pooled)
        assert all(result.shared_with is None for result in serial.values())
        assert serial["gemm_1"].cache_hits > 0
        assert serial["gemm_1"].cache_misses > 0  # went beyond gemm_0's sweep
        assert serial["gemm_2"].cache_misses == 0
        assert {key: result.records for key, result in serial.items()} \
            == {key: result.records for key, result in pooled.items()}
        # Each member equals what it finds when swept alone.
        alone = _sweep(_tasks(3, budgets)[1:2], jobs=1)
        assert alone["gemm_1"].records == serial["gemm_1"].records

    @pytest.mark.parametrize("mode", ["crash", "hang"])
    def test_process_faults_in_the_representative_reach_no_member(
            self, tmp_path, mode):
        # One class, hence one coordinator: a pool break is never charged to
        # a bystander kernel, and the retried sweep must equal the clean one.
        clean = _sweep(_tasks(3, lone=False), jobs=1)
        plan = FaultPlan(mode=mode, select=3, times=1, hang_seconds=60.0,
                         state_dir=str(tmp_path / "ledger"))
        policy = SupervisionPolicy(
            task_timeout=1.0 if mode == "hang" else None)
        faulty = _sweep(_tasks(3, lone=False), jobs=2, faults=plan,
                        supervision=policy)
        assert os.listdir(plan.state_dir)  # faults fired
        for key, result in faulty.items():
            assert result.records == clean[key].records
            assert result.num_quarantined == 0
        assert faulty["gemm_2"].shared_hits == clean["gemm_0"].num_evaluations

    def test_many_coordinators_one_evaluation_per_distinct_point(self):
        """More coordinator threads than cores, switching every 10 us: the
        class's points are still evaluated exactly once and every member
        ends with the representative's records."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = _sweep(_tasks(copies=8), jobs=4)
        finally:
            sys.setswitchinterval(previous)
        first = results["gemm_0"]
        assert first.evaluated_this_run == first.num_evaluations
        for index in range(1, 8):
            member = results[f"gemm_{index}"]
            assert member.records == first.records
            assert member.evaluated_this_run == 0
            assert member.shared_hits == first.num_evaluations
        assert results["bicg"].shared_with is None


class TestModelClassesShareOneBudget:
    """A model sweep's repeated nodes always take the copy path:
    ``node_budget`` gives every node of a fingerprint class the same
    budget."""

    @pytest.mark.parametrize("model", ["vgg16", "resnet18", "mobilenet"])
    def test_every_class_has_one_budget(self, model):
        from repro.dse.runtime.scheduler import _kernel_fingerprint

        config = SweepConfig(num_samples=8, max_iterations=12)
        members = 0
        for graph_level in range(8):
            tasks, _, _ = _staged_tasks(build_model(model), graph_level,
                                        config)
            budgets: dict[str, set] = {}
            for task in tasks:
                fingerprint = _kernel_fingerprint(task.space, VU9P_SLR)
                budgets.setdefault(fingerprint, set()).add(
                    (task.num_samples, task.max_iterations))
            assert all(len(pairs) == 1 for pairs in budgets.values()), \
                (graph_level, budgets)
            members += len(tasks) - len(budgets)
        assert members > 0  # the model has repeated nodes to share

"""Tests for the whole-model DSE: determinism across worker counts and
resumes, per-node budget policy, frontier composition, pipeline-dimension
cache correctness, and the ``dnn --dse`` driver mode."""

import json

import pytest

from repro import obs
from repro.dse.runtime import (
    EstimateCache,
    ModelScheduler,
    NodeBudgetPolicy,
    SweepConfig,
    compose_model_frontier,
)
from repro.dse.space import KernelDesignSpace
from repro.estimation import VU9P_SLR
from repro.frontend.pytorch_like import GraphBuilder


def tiny_model():
    """A 3-stage CNN small enough for sub-second node evaluations."""
    builder = GraphBuilder("tinynet", (1, 3, 8, 8))
    x = builder.conv_bn_relu(builder.input, 8, 3, stride=1, padding=1)
    x = builder.maxpool2d(x, 2)
    x = builder.conv_bn_relu(x, 16, 3, stride=1, padding=1)
    x = builder.global_avgpool2d(x)
    x = builder.flatten(x)
    x = builder.dense(x, 10)
    return builder.finish(x)


def repeated_model():
    """Three identical convolution stages and a tail: the last two stages
    take copies of the first one's sweep."""
    builder = GraphBuilder("twins", (1, 4, 8, 8))
    x = builder.input
    for _ in range(3):
        x = builder.conv_bn_relu(x, 4, 3, stride=1, padding=1)
    x = builder.global_avgpool2d(x)
    x = builder.flatten(x)
    x = builder.dense(x, 10)
    return builder.finish(x)


def scheduler(jobs=1, checkpoint_dir=None, max_evaluations_per_node=None,
              **overrides):
    own = dict(checkpoint_dir=checkpoint_dir,
               max_evaluations_per_node=max_evaluations_per_node)
    config = dict(jobs=jobs, seed=7, batch_size=2, checkpoint_every=16,
                  num_samples=3, max_iterations=4)
    config.update(overrides)
    return ModelScheduler(VU9P_SLR, SweepConfig(**config), **own)


class TestModelSweep:
    def test_sweep_produces_a_nonempty_composed_frontier(self):
        result = scheduler().explore(tiny_model(), graph_level=3)
        assert result.node_order
        assert result.frontier
        assert result.num_evaluations > 0
        # Every frontier point carries one choice per explored node.
        for point in result.frontier:
            assert [name for name, _ in point.choices] == result.node_order

    def test_composition_rule_sums_latency_and_resources(self):
        result = scheduler().explore(tiny_model(), graph_level=3)
        for point in result.frontier:
            latency = dsp = 0
            for name, encoded in point.choices:
                record = result.node_results[name].records[encoded]
                latency += record.qor.latency
                dsp += record.qor.dsp
            assert point.latency == latency
            assert point.resources.dsp == dsp
            assert point.interval == max(
                result.node_results[name].records[encoded].qor.latency
                for name, encoded in point.choices)

    def test_frontier_is_pareto_sorted(self):
        result = scheduler().explore(tiny_model(), graph_level=3)
        latencies = [point.latency for point in result.frontier]
        dsps = [point.resources.dsp for point in result.frontier]
        assert latencies == sorted(latencies)
        # Along ascending latency the DSP cost must strictly improve.
        assert all(a > b for a, b in zip(dsps, dsps[1:]))


class TestModelDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_frontier_json_is_byte_identical_across_jobs(self, jobs):
        serial = scheduler(jobs=1).explore(tiny_model(), graph_level=3)
        parallel = scheduler(jobs=jobs).explore(tiny_model(), graph_level=3)
        assert serial.frontier_json() == parallel.frontier_json()

    def test_resume_from_mid_sweep_checkpoint_is_identical(self, tmp_path):
        full = scheduler().explore(tiny_model(), graph_level=3)

        # Interrupt every node after 2 evaluations (at a batch boundary),
        # then resume with the full budget on a different worker count.
        ckpt = str(tmp_path / "ckpt")
        partial = scheduler(checkpoint_dir=ckpt, checkpoint_every=1,
                            max_evaluations_per_node=2) \
            .explore(tiny_model(), graph_level=3)
        assert partial.num_evaluations < full.num_evaluations

        resumed = scheduler(jobs=2, checkpoint_dir=ckpt) \
            .explore(tiny_model(), graph_level=3, resume=True)
        assert resumed.frontier_json() == full.frontier_json()

    def test_rerun_with_resume_hits_cache_and_matches(self, tmp_path):
        ckpt, cache_path = str(tmp_path / "ckpt"), str(tmp_path / "cache.jsonl")
        first = scheduler(checkpoint_dir=ckpt,
                          cache=EstimateCache(cache_path)) \
            .explore(tiny_model(), graph_level=3)
        # A cold run stores its records but must not claim warm reuse.
        assert first.frontier_cache_hits == 0
        rerun = scheduler(checkpoint_dir=ckpt,
                          cache=EstimateCache(cache_path)) \
            .explore(tiny_model(), graph_level=3, resume=True)
        assert rerun.evaluated_this_run == 0
        # The composed frontier is revalidated against the estimates the
        # persistent cache held *before* the run.
        assert rerun.frontier_cache_hits >= 1
        assert rerun.frontier_json() == first.frontier_json()


class TestACachedModelSweepKeepsNoCheckpoint:
    """With a persistent cache no node keeps a checkpoint, and rerunning the
    sweep replays every node's trajectory from the cache."""

    def sweep(self, tmp_path, jobs=1, resume=False, **overrides):
        cache = EstimateCache(str(tmp_path / "cache.jsonl"))
        try:
            with obs.session() as session:
                result = scheduler(
                    jobs=jobs, checkpoint_dir=str(tmp_path / "ckpt"),
                    checkpoint_every=1, cache=cache, **overrides,
                ).explore(tiny_model(), graph_level=3, resume=resume)
        finally:
            cache.close()
        assert "dse.checkpoint.saves" not in session.metrics.counters
        assert not (tmp_path / "ckpt").exists()
        return result

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_finished_sweep_reruns_from_the_cache(self, tmp_path, jobs):
        first = self.sweep(tmp_path, jobs=jobs)
        cache_bytes = (tmp_path / "cache.jsonl").read_bytes()
        rerun = self.sweep(tmp_path, jobs=jobs, resume=True)
        assert rerun.evaluated_this_run == rerun.cache_misses == 0
        assert rerun.frontier_json() == first.frontier_json() \
            == scheduler().explore(tiny_model(), graph_level=3).frontier_json()
        assert (tmp_path / "cache.jsonl").read_bytes() == cache_bytes

    def test_a_capped_sweep_reruns_to_the_uncapped_one(self, tmp_path):
        partial = self.sweep(tmp_path, max_evaluations_per_node=2)
        rerun = self.sweep(tmp_path, jobs=2)
        assert rerun.cache_hits - rerun.shared_points \
            == partial.num_evaluations
        assert rerun.frontier_json() \
            == scheduler().explore(tiny_model(), graph_level=3).frontier_json()


class TestThePoolShipsWhatEvaluates:
    def test_the_payload_holds_the_representatives_contexts(self,
                                                           monkeypatch):
        from repro.dse.runtime import worker

        shipped = []
        payload = worker._worker_payload

        def recording(contexts):
            shipped.append(sorted(contexts))
            return payload(contexts)

        monkeypatch.setattr(worker, "_worker_payload", recording)
        pooled = scheduler(jobs=2).explore(repeated_model(), graph_level=3)
        representatives = sorted(
            name for name, result in pooled.node_results.items()
            if result.shared_with is None)
        assert shipped == [representatives]
        assert len(representatives) == len(pooled.node_order) - 2
        assert pooled.frontier_json() == scheduler().explore(
            repeated_model(), graph_level=3).frontier_json()


class TestNodeBudgetPolicy:
    def test_flops_mode_scales_down_light_nodes(self):
        policy = NodeBudgetPolicy()
        heavy = policy.budget_for(16, 32, 1000, 1000)
        light = policy.budget_for(16, 32, 10, 1000)
        assert heavy == (16, 32)
        assert light < heavy
        assert light[0] >= policy.min_samples
        assert light[1] >= policy.min_iterations

    def test_uniform_mode_ignores_flops(self):
        policy = NodeBudgetPolicy(mode="uniform")
        assert policy.budget_for(16, 32, 10, 1000) == (16, 32)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown budget mode"):
            NodeBudgetPolicy(mode="bogus").budget_for(8, 12, 1, 1)


class TestFrontierComposition:
    class FakeResult:
        def __init__(self, records):
            self._records = records

        def frontier_records(self):
            return self._records

    @staticmethod
    def record(latency, dsp, encoded):
        from repro.dse.runtime.records import EvaluationRecord
        from repro.dse.space import KernelDesignPoint
        from repro.estimation.estimator import QoRResult
        from repro.estimation.resources import ResourceUsage

        return EvaluationRecord(
            encoded=encoded,
            point=KernelDesignPoint(False, False, (0,), (1,), 1),
            qor=QoRResult(latency=latency, interval=latency,
                          resources=ResourceUsage(dsp=dsp)))

    def test_two_node_composition(self):
        results = {
            "a": self.FakeResult([self.record(100, 8, (0,)),
                                  self.record(50, 16, (1,))]),
            "b": self.FakeResult([self.record(30, 4, (0,))]),
        }
        frontier, truncated = compose_model_frontier(["a", "b"], results)
        assert truncated == 0
        assert [(p.latency, p.resources.dsp) for p in frontier] \
            == [(80, 20), (130, 12)]
        assert frontier[0].interval == 50  # slowest chosen stage
        assert frontier[0].choices == (("a", (1,)), ("b", (0,)))

    def test_empty_node_order_yields_empty_frontier(self):
        frontier, truncated = compose_model_frontier([], {})
        assert frontier == []  # no phantom zero-latency point
        assert truncated == 0

    def test_dominated_combinations_are_pruned(self):
        results = {
            "a": self.FakeResult([self.record(100, 8, (0,)),
                                  self.record(100, 10, (1,))]),
        }
        frontier, _ = compose_model_frontier(["a"], results)
        assert len(frontier) == 1
        assert frontier[0].resources.dsp == 8

    def test_cap_reports_truncation_and_keeps_both_extremes(self):
        records = [self.record(100 + i, 100 - i, (i,)) for i in range(8)]
        results = {"a": self.FakeResult(records)}
        frontier, truncated = compose_model_frontier(["a"], results,
                                                     frontier_cap=3)
        assert len(frontier) == 3
        assert truncated == 5
        # The fastest and the cheapest design both survive the cap, so a
        # tight resource budget can still be satisfied after truncation.
        assert frontier[0].latency == 100
        assert frontier[-1].resources.dsp == 93


class TestPipelineDimensionCache:
    """The cleanup-pipeline dimension must be cache-correct: estimates taken
    under one pipeline registry can never serve a different one."""

    def kernel(self):
        from conftest import GEMM_SOURCE, compile_source

        return compile_source(GEMM_SOURCE, "gemm")

    def test_unregistered_pipeline_name_fails_at_construction(self):
        from repro.ir.pass_manager import PassError

        with pytest.raises(PassError, match="unknown cleanup pipeline"):
            KernelDesignSpace([8, 8], False, False,
                              pipeline_names=["not-registered"])

    def test_pipeline_choices_are_distinct_cache_keys(self, three_cleanups):
        from repro.dse.apply import apply_design_point
        from repro.dse.runtime.records import EvaluationRecord
        from repro.estimation import XC7Z020

        module = self.kernel()
        space = KernelDesignSpace.from_function(module.functions()[0])
        assert len(space.pipeline_options) >= 2
        pipe_dim = space.dimensions.index(space.pipeline_options)
        base = [0] * space.num_dimensions
        variant = list(base)
        variant[pipe_dim] = 1
        assert space.decode(base).pipeline != space.decode(variant).pipeline

        cache = EstimateCache()
        design = apply_design_point(module, space.decode(base), XC7Z020)
        cache.put("fp", EvaluationRecord.from_design(tuple(base), design))
        assert cache.get("fp", tuple(base)) is not None
        assert cache.get("fp", tuple(variant)) is None  # distinct key

    def test_editing_a_named_pipeline_changes_the_fingerprint(
            self, monkeypatch, three_cleanups):
        import repro.dse.apply as apply_mod

        def clear_signature_caches():
            apply_mod.cleanup_pipeline_signature.cache_clear()
            apply_mod.kernel_pipeline_signature.cache_clear()

        module = self.kernel()
        space_a = KernelDesignSpace.from_function(module.functions()[0])
        fingerprint_a = space_a.fingerprint()

        monkeypatch.setitem(apply_mod.CLEANUP_PIPELINES, "test-light",
                            "canonicalize")
        clear_signature_caches()
        try:
            space_b = KernelDesignSpace.from_function(module.functions()[0])
            # Same kernel, same dimension names — but the canonical spec of
            # one named pipeline changed, so the fingerprint must change.
            assert space_b.fingerprint() != fingerprint_a
        finally:
            monkeypatch.undo()
            clear_signature_caches()

    def test_editing_the_one_pipeline_changes_the_fingerprint(self, monkeypatch):
        # No pipeline dimension, and still part of the identity.
        import repro.dse.apply as apply_mod

        func_op = self.kernel().functions()[0]
        space = KernelDesignSpace.from_function(func_op)
        assert space.pipeline_options == ["default"]
        before = space.fingerprint()
        monkeypatch.setitem(apply_mod.CLEANUP_PIPELINES, "default",
                            "canonicalize")
        apply_mod.cleanup_pipeline_signature.cache_clear()
        try:
            edited = KernelDesignSpace.from_function(func_op)
            assert edited.dimensions == space.dimensions
            assert edited.fingerprint() != before
        finally:
            monkeypatch.undo()
            apply_mod.cleanup_pipeline_signature.cache_clear()

    def test_estimates_under_edited_pipeline_miss_the_cache(
            self, monkeypatch, three_cleanups):
        from repro.dse.runtime import ParallelExplorer
        from repro.estimation import XC7Z020

        import repro.dse.apply as apply_mod

        def clear_signature_caches():
            apply_mod.cleanup_pipeline_signature.cache_clear()
            apply_mod.kernel_pipeline_signature.cache_clear()

        cache = EstimateCache()
        explorer_config = dict(num_samples=4, max_iterations=4, seed=3,
                               batch_size=2)

        def explorer(cache):
            return ParallelExplorer(
                XC7Z020, SweepConfig(cache=cache, **explorer_config))

        cold = explorer(cache).explore(self.kernel())
        assert cold.cache_misses == cold.num_evaluations

        monkeypatch.setitem(apply_mod.CLEANUP_PIPELINES, "test-light",
                            "canonicalize")
        clear_signature_caches()
        try:
            edited = explorer(cache).explore(self.kernel())
            # A registry whose pipelines mean something else gets no reuse.
            assert edited.cache_hits == 0
        finally:
            monkeypatch.undo()
            clear_signature_caches()

    def test_stale_fingerprint_cache_file_is_rejected(self, tmp_path):
        from repro.dse.runtime import ParallelExplorer
        from repro.estimation import XC7Z020

        path = str(tmp_path / "cache.jsonl")
        explorer_config = dict(num_samples=4, max_iterations=4, seed=3,
                               batch_size=2)

        def explorer(cache):
            return ParallelExplorer(
                XC7Z020, SweepConfig(cache=cache, **explorer_config))

        explorer(EstimateCache(path)).explore(self.kernel())

        # Rewrite every line as if estimated under a different fingerprint
        # (e.g. an edited pipeline registry).  The entries load, but no
        # lookup may be served from them.
        lines = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                data = json.loads(line)
                data["fingerprint"] = "0" * 20
                lines.append(json.dumps(data))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

        revived = EstimateCache(path)
        assert revived.stats.loaded > 0
        warm = explorer(revived).explore(self.kernel())
        assert warm.cache_hits == 0
        assert warm.evaluated_this_run == warm.num_evaluations


class TestDnnDseDriver:
    def test_smoke_sweep_writes_deterministic_frontier_json(self, tmp_path):
        from repro.tools.driver import main

        out_1 = str(tmp_path / "frontier1.json")
        out_2 = str(tmp_path / "frontier2.json")
        base = ["dnn", "mobilenet", "--dse", "--smoke", "--seed", "5",
                "--cache", str(tmp_path / "cache"), "--checkpoint",
                str(tmp_path / "ckpt")]
        assert main(base + ["--jobs", "2", "--frontier-out", out_1]) == 0
        assert main(base + ["--jobs", "1", "--resume",
                            "--frontier-out", out_2]) == 0
        with open(out_1, encoding="utf-8") as handle:
            first = handle.read()
        with open(out_2, encoding="utf-8") as handle:
            second = handle.read()
        assert first == second
        payload = json.loads(first)
        assert payload["model"] == "mobilenet"
        assert payload["frontier"]
        assert payload["node_order"]

    def test_resume_without_checkpoint_rejected(self):
        from repro.tools.driver import main

        with pytest.raises(SystemExit, match="--resume requires"):
            main(["dnn", "--dse", "--resume"])

    def test_checkpoint_file_rejected(self, tmp_path):
        from repro.tools.driver import main

        target = tmp_path / "ckpt-file"
        target.write_text("not a directory")
        with pytest.raises(SystemExit, match="must name a directory"):
            main(["dnn", "--dse", "--checkpoint", str(target)])

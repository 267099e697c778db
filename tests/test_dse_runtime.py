"""Tests for the parallel DSE runtime: determinism across worker counts,
estimate-cache accounting and persistence, checkpoint round-trips, and the
multi-kernel scheduler."""

import gc
import pickle
import sys
import threading

import pytest

from repro.dse import KernelDesignSpace
from repro.dse.apply import apply_design_point
from repro.dse.runtime import (
    CheckpointStore,
    EstimateCache,
    EvaluationRecord,
    ExplorerState,
    MultiKernelScheduler,
    ParallelExplorer,
    SweepConfig,
)
from repro.dse.runtime import worker
from repro.dse.runtime.faults import FaultPlan, InjectedFault
from repro.dse.runtime.worker import KernelContext, evaluate_encoded
from repro.estimation import XC7Z020
from repro.ir.pass_manager import PassError
from repro.pipeline import compile_kernel

from conftest import GEMM_SOURCE, SYRK_SOURCE, compile_source


def frontier_signature(result):
    """Byte-comparable rendering of a frontier (encoded point + objectives)."""
    return repr([(p.encoded, p.latency, p.area) for p in result.frontier])


def small_explorer(checkpoint_path=None, max_evaluations=None, **overrides):
    config = dict(num_samples=6, max_iterations=8, seed=11, jobs=1,
                  batch_size=4)
    config.update(overrides)
    return ParallelExplorer(XC7Z020, SweepConfig(**config),
                            checkpoint_path=checkpoint_path,
                            max_evaluations=max_evaluations)


@pytest.fixture
def gemm_module():
    return compile_source(GEMM_SOURCE, "gemm")


class TestPicklability:
    def test_applied_design_and_record_roundtrip(self, gemm_module):
        space = KernelDesignSpace.from_function(gemm_module.functions()[0])
        encoded = tuple(0 for _ in range(space.num_dimensions))
        design = apply_design_point(gemm_module, space.decode(encoded), XC7Z020)
        revived = pickle.loads(pickle.dumps(design))
        assert revived.qor.latency == design.qor.latency
        assert revived.point == design.point

        record = EvaluationRecord.from_design(encoded, design)
        assert pickle.loads(pickle.dumps(record)) == record

    def test_record_json_roundtrip(self, gemm_module):
        space = KernelDesignSpace.from_function(gemm_module.functions()[0])
        encoded = tuple(0 for _ in range(space.num_dimensions))
        design = apply_design_point(gemm_module, space.decode(encoded), XC7Z020)
        record = EvaluationRecord.from_design(encoded, design)
        assert EvaluationRecord.from_json_dict(record.to_json_dict()) == record


class TestFingerprint:
    def test_stable_across_compilations(self):
        space_a = KernelDesignSpace.from_function(
            compile_source(GEMM_SOURCE, "gemm").functions()[0])
        space_b = KernelDesignSpace.from_function(
            compile_source(GEMM_SOURCE, "gemm").functions()[0])
        assert space_a.fingerprint() == space_b.fingerprint()

    def test_differs_between_kernels(self):
        gemm_space = KernelDesignSpace.from_function(
            compile_source(GEMM_SOURCE, "gemm").functions()[0])
        syrk_space = KernelDesignSpace.from_function(
            compile_source(SYRK_SOURCE, "syrk").functions()[0])
        assert gemm_space.fingerprint() != syrk_space.fingerprint()

    def test_covers_dimension_options(self):
        direct = KernelDesignSpace([8, 8, 8], False, False)
        wider = KernelDesignSpace([8, 8, 8], False, False, max_target_ii=16)
        assert direct.fingerprint() != wider.fingerprint()


class TestDeterminism:
    def test_one_vs_four_workers_identical_frontier(self, gemm_module):
        serial = small_explorer(jobs=1).explore(gemm_module)
        parallel = small_explorer(jobs=4).explore(gemm_module)
        assert frontier_signature(serial) == frontier_signature(parallel)
        assert serial.best_record == parallel.best_record
        assert set(serial.records) == set(parallel.records)

    def test_repeated_runs_identical(self, gemm_module):
        first = small_explorer().explore(gemm_module)
        second = small_explorer().explore(gemm_module)
        assert frontier_signature(first) == frontier_signature(second)

    def test_warm_cache_does_not_change_frontier(self, gemm_module):
        cache = EstimateCache()
        explorer = small_explorer(cache=cache)
        cold = explorer.explore(gemm_module)
        warm = explorer.explore(gemm_module)
        assert frontier_signature(cold) == frontier_signature(warm)

    def test_frontier_is_non_dominated(self, gemm_module):
        from repro.dse.pareto import is_pareto_optimal

        result = small_explorer(jobs=2).explore(gemm_module)
        for point in result.frontier:
            assert is_pareto_optimal(point, result.frontier)


class TestEstimateCache:
    def test_hit_miss_accounting(self, gemm_module):
        cache = EstimateCache()
        explorer = small_explorer(cache=cache)
        cold = explorer.explore(gemm_module)
        assert cold.cache_hits == 0
        assert cold.cache_misses == cold.num_evaluations
        assert cold.evaluated_this_run == cold.num_evaluations

        warm = explorer.explore(gemm_module)
        assert warm.cache_misses == 0
        assert warm.cache_hits == warm.num_evaluations
        assert warm.evaluated_this_run == 0
        assert cache.stats.hit_rate >= 0.5  # half of all lookups were warm

    def test_persistence_roundtrip(self, gemm_module, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cold = small_explorer(cache=EstimateCache(path)).explore(gemm_module)

        revived = EstimateCache(path)
        assert revived.stats.loaded == cold.num_evaluations
        warm = small_explorer(cache=revived).explore(gemm_module)
        assert warm.cache_hits == warm.num_evaluations
        assert warm.cache_misses == 0
        assert frontier_signature(warm) == frontier_signature(cold)

    def test_corrupt_tail_line_tolerated(self, gemm_module, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        small_explorer(cache=EstimateCache(path)).explore(gemm_module)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "truncated...\n')
        revived = EstimateCache(path)
        assert revived.stats.loaded > 0

    def test_stale_model_version_entries_ignored(self, gemm_module, tmp_path):
        import json

        path = str(tmp_path / "cache.jsonl")
        small_explorer(cache=EstimateCache(path)).explore(gemm_module)
        # Rewrite every line as if estimated under an older QoR model.
        lines = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                data = json.loads(line)
                data["model"] = -1
                lines.append(json.dumps(data))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        revived = EstimateCache(path)
        assert revived.stats.loaded == 0  # stale entries discarded, not reused

    def test_warm_run_spawns_no_workers(self, gemm_module, monkeypatch):
        cache = EstimateCache()
        small_explorer(cache=cache).explore(gemm_module)
        # A fully warm run must never fork a worker: the pool's workers
        # start on its first evaluation, and there is none.
        def boom(*args, **kwargs):
            raise AssertionError("worker forked during a fully warm run")

        monkeypatch.setattr(worker, "_ProcessLink", boom)
        warm = small_explorer(cache=cache, jobs=4).explore(gemm_module)
        assert warm.evaluated_this_run == 0

    def test_keys_are_per_kernel(self, gemm_module):
        cache = EstimateCache()
        small_explorer(cache=cache).explore(gemm_module)
        syrk = compile_source(SYRK_SOURCE, "syrk")
        result = small_explorer(cache=cache).explore(syrk)
        assert result.cache_hits == 0  # different fingerprint, no collisions

    def test_direct_space_does_not_collide_across_kernels(self, gemm_module):
        # Two kernels with identically *shaped* spaces (same trip counts and
        # options) but different IR must not share cache entries when the
        # caller passes a directly constructed KernelDesignSpace.
        transposed = compile_source(GEMM_SOURCE.replace("B[k][j]", "B[j][k]"),
                                    "gemm")
        space_a = KernelDesignSpace([8, 8, 8], False, False)
        space_b = KernelDesignSpace([8, 8, 8], False, False)
        assert space_a.fingerprint() == space_b.fingerprint()  # shape only
        cache = EstimateCache()
        small_explorer(cache=cache).explore(gemm_module, space=space_a)
        result = small_explorer(cache=cache).explore(transposed, space=space_b)
        assert result.cache_hits == 0  # runtime mixed the IR digest back in

    def test_line_missing_fingerprint_tolerated(self, gemm_module, tmp_path):
        import json

        path = str(tmp_path / "cache.jsonl")
        explorer = small_explorer(cache=EstimateCache(path))
        cold = explorer.explore(gemm_module)
        with open(path, "r", encoding="utf-8") as handle:
            first = json.loads(handle.readline())
        del first["fingerprint"]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(first) + "\n")
        revived = EstimateCache(path)  # must not raise
        assert revived.stats.loaded == cold.num_evaluations


class TestCheckpoint:
    def test_state_json_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "state.json"))
        state = ExplorerState.fresh("fp", seed=5)
        state.rng.random()
        state.samples_done = True
        state.iterations_done = 3
        store.save(state)

        loaded = store.load(expected_fingerprint="fp")
        assert loaded is not None
        assert loaded.samples_done and loaded.iterations_done == 3
        assert loaded.rng_state == state.rng_state
        assert loaded.rng.random() == state.rng.random()

    def test_file_bytes_equal_the_streaming_writer(self, tmp_path):
        # save() encodes with json.dumps (the C encoder); json.dump, which it
        # replaced, must have written the very same file.
        import io
        import json

        from repro.dse.runtime.checkpoint import _rng_state_to_json
        from repro.estimation.estimator import QOR_MODEL_VERSION
        from repro.estimation.platform import PLATFORMS

        module = compile_source(GEMM_SOURCE, "gemm")
        platforms = [XC7Z020, PLATFORMS["zcu102"]]
        space = KernelDesignSpace.from_function(module.functions()[0],
                                                platforms=platforms)
        state = ExplorerState.fresh("fp", seed=5, config={
            "seed": 5, "platforms": [[platform.name, platform.config_hash()]
                                     for platform in platforms]})
        for index, name in enumerate(space.platform_options):
            encoded = (0,) * (space.num_dimensions - 1) + (index,)
            platform = space.platform_named(name)
            design = apply_design_point(module, space.decode(encoded), platform)
            state.records[encoded] = EvaluationRecord.from_design(
                encoded, design, platform_hash=platform.config_hash())
        poisoned = (0,) * (space.num_dimensions - 2) + (1, 0)
        state.records[poisoned] = EvaluationRecord.quarantined(
            poisoned, space.decode(poisoned), "InjectedFault: poison")
        assert [record.ok for record in state.records.values()] \
            == [True, True, False]
        store = CheckpointStore(str(tmp_path / "state.json"))
        store.save(state)

        streamed = io.StringIO()
        json.dump({
            "version": 1, "model": QOR_MODEL_VERSION,
            "fingerprint": state.fingerprint, "seed": state.seed,
            "config": state.config, "samples_done": state.samples_done,
            "iterations_done": state.iterations_done,
            "rng_state": _rng_state_to_json(state.rng_state),
            "records": [record.to_json_dict()
                        for record in state.records.values()],
        }, streamed)
        assert (tmp_path / "state.json").read_text(encoding="utf-8") \
            == streamed.getvalue()
        assert store.load(expected_fingerprint="fp").records == state.records

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "state.json"))
        store.save(ExplorerState.fresh("fp", seed=5))
        assert store.load(expected_fingerprint="other") is None

    def test_a_snapshot_of_another_qor_model_is_not_resumed(self, tmp_path,
                                                            monkeypatch):
        import json

        from repro.dse.runtime import checkpoint

        store = CheckpointStore(str(tmp_path / "state.json"))
        store.save(ExplorerState.fresh("fp", seed=5))
        assert store.load(expected_fingerprint="fp") is not None
        payload = json.loads((tmp_path / "state.json").read_text())
        del payload["model"]
        (tmp_path / "state.json").write_text(json.dumps(payload))
        assert store.load(expected_fingerprint="fp") is None
        store.save(ExplorerState.fresh("fp", seed=5))
        monkeypatch.setattr(checkpoint, "QOR_MODEL_VERSION",
                            getattr(checkpoint, "QOR_MODEL_VERSION", 0) + 1,
                            raising=False)
        assert store.load(expected_fingerprint="fp") is None

    def test_records_of_another_qor_model_are_evaluated_again(
            self, gemm_module, tmp_path, monkeypatch):
        from repro.dse.runtime import checkpoint
        from repro.estimation import estimator

        path = str(tmp_path / "explore.ckpt.json")
        partial = small_explorer(checkpoint_path=path, max_evaluations=5) \
            .explore(gemm_module)
        assert partial.num_evaluations > 0
        version = estimator.QOR_MODEL_VERSION + 1
        monkeypatch.setattr(estimator, "QOR_MODEL_VERSION", version)
        monkeypatch.setattr(checkpoint, "QOR_MODEL_VERSION", version,
                            raising=False)
        resumed = small_explorer(checkpoint_path=path) \
            .explore(gemm_module, resume=True)
        assert resumed.evaluated_this_run == resumed.num_evaluations
        assert frontier_signature(resumed) \
            == frontier_signature(small_explorer().explore(gemm_module))

    def test_interrupted_resume_matches_uninterrupted(self, gemm_module, tmp_path):
        checkpoint = str(tmp_path / "explore.ckpt.json")
        config = dict(num_samples=6, max_iterations=12, seed=11, batch_size=4)

        full = small_explorer(**config).explore(gemm_module)

        # Simulate a kill after ~10 evaluations (enforced at batch boundaries),
        # then resume from the checkpoint with the full budget.
        partial = small_explorer(**config, checkpoint_path=checkpoint,
                                 checkpoint_every=2,
                                 max_evaluations=10).explore(gemm_module)
        assert partial.num_evaluations < full.num_evaluations

        resumed = small_explorer(**config, checkpoint_path=checkpoint) \
            .explore(gemm_module, resume=True)
        assert frontier_signature(resumed) == frontier_signature(full)
        assert set(resumed.records) == set(full.records)

    def test_resume_skips_completed_work(self, gemm_module, tmp_path):
        checkpoint = str(tmp_path / "explore.ckpt.json")
        explorer = small_explorer(checkpoint_path=checkpoint, checkpoint_every=2)
        explorer.explore(gemm_module)
        rerun = small_explorer(checkpoint_path=checkpoint) \
            .explore(gemm_module, resume=True)
        assert rerun.evaluated_this_run == 0  # everything restored from disk

    def test_resume_with_different_config_starts_fresh(self, gemm_module, tmp_path):
        checkpoint = str(tmp_path / "explore.ckpt.json")
        small_explorer(seed=11, checkpoint_path=checkpoint,
                       checkpoint_every=2, max_evaluations=8).explore(gemm_module)
        # Resuming under a different seed must NOT continue the seed-11
        # trajectory — it starts a fresh seed-12 run.
        resumed = small_explorer(seed=12, checkpoint_path=checkpoint) \
            .explore(gemm_module, resume=True)
        fresh = small_explorer(seed=12).explore(gemm_module)
        assert frontier_signature(resumed) == frontier_signature(fresh)

    def test_resume_without_checkpoint_starts_fresh(self, gemm_module, tmp_path):
        checkpoint = str(tmp_path / "missing.ckpt.json")
        result = small_explorer(checkpoint_path=checkpoint) \
            .explore(gemm_module, resume=True)
        assert result.num_evaluations > 0


class TestACachedSweepKeepsNoCheckpoint:
    """A sweep whose estimate cache has a file keeps no checkpoint: the
    cache never drops a record, so rerunning the sweep, with or without
    ``resume``, replays its trajectory from the cache."""

    SWEEP = dict(num_samples=6, max_iterations=8, seed=11, batch_size=4,
                 checkpoint_every=2)

    def sweep(self, module, tmp_path, resume=False, max_evaluations=None):
        cache = EstimateCache(str(tmp_path / "cache.jsonl"))
        try:
            return small_explorer(
                checkpoint_path=str(tmp_path / "dse.ckpt.json"),
                max_evaluations=max_evaluations, cache=cache, **self.SWEEP,
            ).explore(module, resume=resume)
        finally:
            cache.close()

    @pytest.mark.parametrize("resume", [False, True])
    def test_a_rerun_replays_the_trajectory_from_the_cache(
            self, gemm_module, tmp_path, resume):
        from repro.pipeline import explore_kernel

        clean = small_explorer(**self.SWEEP).explore(gemm_module)
        first = explore_kernel(gemm_module, XC7Z020, jobs=1,
                               cache_path=str(tmp_path / "cache.jsonl"),
                               checkpoint_path=str(tmp_path / "dse.ckpt.json"),
                               **self.SWEEP)
        assert not (tmp_path / "dse.ckpt.json").exists()
        cache_bytes = (tmp_path / "cache.jsonl").read_bytes()
        again = self.sweep(gemm_module, tmp_path, resume=resume)
        assert again.evaluated_this_run == again.cache_misses == 0
        assert again.cache_hits == again.num_evaluations
        assert list(again.records.items()) == list(first.records.items())
        assert frontier_signature(again) == frontier_signature(first) \
            == frontier_signature(clean)
        assert (tmp_path / "cache.jsonl").read_bytes() == cache_bytes
        assert not (tmp_path / "dse.ckpt.json").exists()

    def test_the_cache_is_synced_where_a_checkpoint_would_be_saved(
            self, tmp_path, monkeypatch):
        events = []
        sync, save = EstimateCache.sync, CheckpointStore.save

        def recording_sync(cache):
            events.append("sync")
            sync(cache)

        def recording_save(store, state):
            events.append("save")
            save(store, state)

        monkeypatch.setattr(EstimateCache, "sync", recording_sync)
        monkeypatch.setattr(CheckpointStore, "save", recording_save)

        def sweep(name, cache=None):
            MultiKernelScheduler(
                XC7Z020, SweepConfig(cache=cache, **self.SWEEP),
                checkpoint_dir=str(tmp_path / name),
            ).explore_module(compile_source(GEMM_SOURCE + SYRK_SOURCE, "pair"))
            saved = list(events)
            del events[:]
            return saved

        saves = sweep("bare")
        cache = EstimateCache(str(tmp_path / "cache.jsonl"))
        syncs = sweep("ckpt", cache)
        cache.close()
        assert saves == ["save"] * len(saves) and len(saves) > 2
        assert syncs == ["sync"] * len(saves)
        assert not (tmp_path / "ckpt").exists()

    def test_sync_makes_the_appended_lines_durable(self, gemm_module,
                                                   tmp_path, monkeypatch):
        import os

        cache = EstimateCache(str(tmp_path / "cache.jsonl"))
        cache.sync()  # nothing appended yet: nothing to sync
        small_explorer(cache=cache).explore(gemm_module)
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        cache.sync()
        assert synced == [cache._handle.fileno()]
        cache.close()

    def test_a_capped_sweep_leaves_no_checkpoint(self, gemm_module, tmp_path):
        from repro import obs

        with obs.session() as session:
            partial = self.sweep(gemm_module, tmp_path, max_evaluations=5)
            rerun = self.sweep(gemm_module, tmp_path)
        assert "dse.checkpoint.saves" not in session.metrics.counters
        assert not (tmp_path / "dse.ckpt.json").exists()
        full = small_explorer(**self.SWEEP).explore(gemm_module)
        assert partial.num_evaluations < full.num_evaluations
        assert list(rerun.records.items()) == list(full.records.items())
        assert frontier_signature(rerun) == frontier_signature(full)
        # Only what the capped run did not store is evaluated.
        assert rerun.cache_hits == partial.num_evaluations
        assert rerun.evaluated_this_run \
            == full.num_evaluations - partial.num_evaluations

    def test_a_checkpoint_is_neither_read_nor_written(self, gemm_module,
                                                      tmp_path):
        # One left by a capped cacheless run: a cached sweep starts over
        # and leaves the file as it found it.
        path = tmp_path / "dse.ckpt.json"
        small_explorer(checkpoint_path=str(path), max_evaluations=5,
                       **self.SWEEP).explore(gemm_module)
        left = path.read_bytes()
        cached = self.sweep(gemm_module, tmp_path, resume=True)
        assert cached.evaluated_this_run == cached.num_evaluations
        assert path.read_bytes() == left

    def test_a_repeated_kernel_keeps_no_checkpoint_of_its_own(self,
                                                              gemm_module,
                                                              tmp_path):
        # Two identical kernels without a cache: the second is a copy of the
        # first's result, which keeps its final checkpoint.
        from repro.dse.runtime import KernelTask

        space = KernelDesignSpace.from_function(gemm_module.functions()[0])
        tasks = [KernelTask(key=key, module=gemm_module, func_name=None,
                            space=space) for key in ("first", "second")]
        results = MultiKernelScheduler(
            XC7Z020, SweepConfig(**self.SWEEP),
            checkpoint_dir=str(tmp_path / "ckpt")).explore_kernels(tasks)
        assert results["second"].shared_hits > 0
        assert sorted(path.name for path in (tmp_path / "ckpt").iterdir()) \
            == ["first.ckpt.json"]


class TestEvaluationArena:
    """``evaluate_encoded`` pauses the cyclic collector for its length and
    collects once, after the transformed module is gone."""

    @staticmethod
    def context(module, **fields):
        space = KernelDesignSpace.from_function(module.functions()[0])
        return KernelContext(module=module, func_name=None, platform=XC7Z020,
                             space=space, **fields), (0,) * space.num_dimensions

    @pytest.fixture
    def collections_seen(self):
        """Generations of the collections run while the test body executes."""
        seen = []

        def callback(phase, info):
            if phase == "start":
                seen.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.callbacks.append(callback)
        try:
            yield seen
        finally:
            gc.callbacks.remove(callback)
            (gc.enable if was_enabled else gc.disable)()

    def test_one_young_collection_per_evaluation(self, gemm_module,
                                                 collections_seen):
        context, encoded = self.context(gemm_module)
        gc.enable()
        evaluate_encoded(context, encoded)  # warm every lazy cache
        del collections_seen[:]
        record = evaluate_encoded(context, encoded)
        assert collections_seen == [0]
        assert gc.isenabled()
        assert record.ok

    def test_a_disabled_collector_stays_disabled_and_unused(self, gemm_module,
                                                            collections_seen):
        context, encoded = self.context(gemm_module)
        gc.disable()
        del collections_seen[:]
        evaluate_encoded(context, encoded)
        assert not gc.isenabled()
        assert collections_seen == []

    def test_collector_restored_on_errors(self, gemm_module, tmp_path,
                                          collections_seen):
        gc.enable()
        context, encoded = self.context(gemm_module, pipeline="another-pipeline")
        with pytest.raises(PassError, match="pipeline mismatch"):
            evaluate_encoded(context, encoded)
        assert gc.isenabled()
        context, encoded = self.context(
            gemm_module, faults=FaultPlan.parse(f"poison:select=1,state_dir={tmp_path}"))
        with pytest.raises(InjectedFault):
            evaluate_encoded(context, encoded, fault_key="gemm")
        assert gc.isenabled()
        assert worker._ARENA._depth == 0

    def test_nested_evaluations_resume_at_the_outermost_exit(
            self, gemm_module, collections_seen):
        context, encoded = self.context(gemm_module)
        gc.enable()
        del collections_seen[:]
        with worker._ARENA:
            evaluate_encoded(context, encoded)
            assert not gc.isenabled()
            assert collections_seen == []
        assert gc.isenabled()
        assert collections_seen == [0]

    def test_an_evaluation_in_flight_on_another_thread_keeps_the_pause(
            self, gemm_module, collections_seen):
        context, encoded = self.context(gemm_module)
        gc.enable()
        entered, release = threading.Event(), threading.Event()

        def in_flight():
            with worker._ARENA:
                entered.set()
                release.wait(30)

        thread = threading.Thread(target=in_flight)
        thread.start()
        try:
            assert entered.wait(30)
            del collections_seen[:]
            evaluate_encoded(context, encoded)
            assert not gc.isenabled() and collections_seen == []
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()
        assert gc.isenabled() and collections_seen == [0]

    def test_threads_entering_and_leaving_at_once_leave_the_collector_on(
            self, gemm_module, collections_seen):
        context, encoded = self.context(compile_kernel("gemm", 4))
        expected = evaluate_encoded(context, encoded)
        gc.enable()
        records, failures = [], []

        def evaluate_some():
            try:
                for _ in range(3):
                    records.append(evaluate_encoded(context, encoded))
            except Exception as error:  # surfaced by the assert below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=evaluate_some) for _ in range(8)]
            del collections_seen[:]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures and records == [expected] * 24
        assert worker._ARENA._depth == 0 and gc.isenabled()
        # Only the arena collected, at most once per evaluation.
        assert set(collections_seen) == {0} and len(collections_seen) <= 24


class TestMultiKernelScheduler:
    def two_kernel_module(self):
        return compile_source(GEMM_SOURCE + SYRK_SOURCE, "pair")

    def scheduler(self, jobs, **overrides):
        config = dict(num_samples=4, max_iterations=6, seed=3, batch_size=4)
        config.update(overrides)
        return MultiKernelScheduler(XC7Z020, SweepConfig(jobs=jobs, **config))

    def test_explores_every_function(self):
        results = self.scheduler(jobs=1).explore_module(self.two_kernel_module())
        assert set(results) == {"gemm", "syrk"}
        for result in results.values():
            assert result.best_record is not None
            assert result.frontier

    def test_concurrent_matches_serial(self):
        serial = self.scheduler(jobs=1).explore_module(self.two_kernel_module())
        concurrent = self.scheduler(jobs=2).explore_module(self.two_kernel_module())
        for name in serial:
            assert frontier_signature(serial[name]) \
                == frontier_signature(concurrent[name])

    def test_shared_cache_across_runs(self):
        cache = EstimateCache()
        module = self.two_kernel_module()
        self.scheduler(jobs=1, cache=cache).explore_module(module)
        warm = self.scheduler(jobs=1, cache=cache).explore_module(module)
        for result in warm.values():
            assert result.cache_misses == 0
            assert result.cache_hits == result.num_evaluations

    def test_function_subset_and_unknown_name(self):
        module = self.two_kernel_module()
        results = self.scheduler(jobs=1).explore_module(module, func_names=["gemm"])
        assert set(results) == {"gemm"}
        with pytest.raises(ValueError):
            self.scheduler(jobs=1).explore_module(module, func_names=["nope"])

    def test_one_kernel_of_an_unknown_name(self, gemm_module):
        from repro.pipeline import explore_kernel

        message = "function 'nope' not found in the module"
        with pytest.raises(ValueError, match=message):
            explore_kernel(gemm_module, func_name="nope")
        with pytest.raises(ValueError, match=message):
            small_explorer().explore(gemm_module, func_name="nope")


class TestResultMaterialization:
    def test_best_design_matches_record(self, gemm_module):
        result = small_explorer().explore(gemm_module)
        design = result.best_design()
        assert design.qor.latency == result.best_record.qor.latency
        assert design.point == result.best_record.point

    def test_emission_of_materialized_design(self, gemm_module):
        from repro.emit import emit_hlscpp

        result = small_explorer().explore(gemm_module)
        code = emit_hlscpp(result.best_design().module)
        assert "void gemm(" in code

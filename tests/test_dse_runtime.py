"""Tests for the parallel DSE runtime: determinism across worker counts,
estimate-cache accounting and persistence, checkpoint round-trips, and the
multi-kernel scheduler."""

import collections
import gc
import pickle
import sys
import threading

import pytest

from repro import obs
from repro.dse import KernelDesignSpace
from repro.dse.apply import apply_design_point, estimate_baseline
from repro.dse.runtime import (
    CheckpointStore,
    EstimateCache,
    EvaluationRecord,
    KernelTask,
    SweepConfig,
)
from repro.dse.runtime import model, scheduler, worker
from repro.dse.runtime.faults import EvaluationFailure, FaultPlan, InjectedFault
from repro.dse.runtime.worker import KernelContext, evaluate_encoded
from repro.dse.space import ir_digest
from repro.estimation import VU9P_SLR, XC7Z020
from repro.ir.pass_manager import PassError
from repro.ir.printer import print_op
from repro.pipeline import (compile_kernel, explore_dnn, explore_kernel,
                            explore_module_kernels)

from conftest import GEMM_SOURCE, SYRK_SOURCE, compile_source


def cache_counters(run) -> tuple:
    """``run()``'s value and the ``cache.*`` counters it recorded, keyed
    without the prefix (0 for one it did not record)."""
    with obs.session() as session:
        value = run()
    return value, collections.Counter({
        name[len("cache."):]: count
        for name, count in session.metrics.counters.items()
        if name.startswith("cache.")})


def frontier_signature(result):
    """Byte-comparable rendering of a frontier (encoded point + objectives)."""
    return repr([(p.encoded, p.latency, p.area) for p in result.frontier])


SMALL = dict(num_samples=6, max_iterations=8, seed=11, jobs=1, batch_size=4)


def small_sweep(module, **overrides):
    return explore_kernel(module, XC7Z020, **{**SMALL, **overrides})


@pytest.fixture
def gemm_module():
    return compile_source(GEMM_SOURCE, "gemm")


@pytest.mark.parametrize("field,value,least", [
    ("jobs", 0, 1), ("batch_size", 0, 1), ("checkpoint_every", 0, 1),
    ("num_samples", 0, 1), ("max_iterations", -1, 0)])
def test_a_budget_below_its_least_is_rejected(field, value, least):
    with pytest.raises(ValueError,
                       match=f"{field} must be >= {least}, got {value}"):
        SweepConfig(**{field: value})
    assert getattr(SweepConfig(**{field: least}), field) == least


class TestPicklability:
    def test_applied_design_and_record_roundtrip(self, gemm_module):
        space = KernelDesignSpace.from_function(gemm_module.functions()[0])
        encoded = tuple(0 for _ in range(space.num_dimensions))
        design = apply_design_point(gemm_module, space.decode(encoded), XC7Z020)
        revived = pickle.loads(pickle.dumps(design))
        assert revived.qor.latency == design.qor.latency
        assert revived.point == design.point
        # One module: its function and pipelined loop are ops of it, not
        # second copies.
        ops = list(revived.module.walk())
        assert design.pipelined is not None
        assert any(op is revived.func_op for op in ops)
        assert any(op is revived.pipelined for op in ops)
        assert print_op(revived.module, stable_ids=True) == \
            print_op(design.module, stable_ids=True)

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

    def test_covers_dimension_options(self, monkeypatch):
        # Same trip counts and digest: only the offered target IIs differ,
        # so the fingerprint must hash the dimension options themselves.
        direct = KernelDesignSpace([8, 8, 8], False, False, "kernel")
        monkeypatch.setattr(KernelDesignSpace, "TARGET_IIS", (1, 2, 4, 16))
        wider = KernelDesignSpace([8, 8, 8], False, False, "kernel")
        assert direct.ii_options != wider.ii_options
        assert direct.fingerprint() != wider.fingerprint()

    def test_a_space_needs_its_kernels_digest(self):
        with pytest.raises(ValueError, match="ir_digest"):
            KernelDesignSpace([8, 8, 8], False, False, "")


class TestDeterminism:
    def test_one_vs_four_workers_identical_frontier(self, gemm_module):
        serial = small_sweep(gemm_module, jobs=1)
        parallel = small_sweep(gemm_module, jobs=4)
        assert frontier_signature(serial) == frontier_signature(parallel)
        assert serial.best_record == parallel.best_record
        assert set(serial.records) == set(parallel.records)

    def test_repeated_runs_identical(self, gemm_module):
        first = small_sweep(gemm_module)
        second = small_sweep(gemm_module)
        assert frontier_signature(first) == frontier_signature(second)

    def test_warm_cache_does_not_change_frontier(self, gemm_module):
        cache = EstimateCache()
        cold = small_sweep(gemm_module, cache=cache)
        warm = small_sweep(gemm_module, cache=cache)
        assert frontier_signature(cold) == frontier_signature(warm)

    def test_frontier_is_non_dominated(self, gemm_module):
        from repro.dse.pareto import is_pareto_optimal

        result = small_sweep(gemm_module, jobs=2)
        for point in result.frontier:
            assert is_pareto_optimal(point, result.frontier)


class TestEstimateCache:
    def test_hit_miss_accounting(self, gemm_module):
        cache = EstimateCache()
        (cold, warm), counts = cache_counters(lambda: (
            small_sweep(gemm_module, cache=cache),
            small_sweep(gemm_module, cache=cache)))
        assert cold.cache_hits == 0
        assert cold.cache_misses == cold.num_evaluations
        assert cold.evaluated_this_run == cold.num_evaluations

        assert warm.cache_misses == 0
        assert warm.cache_hits == warm.num_evaluations
        assert warm.evaluated_this_run == 0
        # Half of all lookups were warm.
        assert counts["hits"] >= counts["misses"] > 0
        assert counts["hits"] == warm.cache_hits
        assert counts["misses"] == counts["stores"] == len(cache)

    def test_persistence_roundtrip(self, gemm_module, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cold = small_sweep(gemm_module, cache=EstimateCache(path))

        revived, counts = cache_counters(lambda: EstimateCache(path))
        assert counts["loaded"] == len(revived) == cold.num_evaluations
        warm = small_sweep(gemm_module, cache=revived)
        assert warm.cache_hits == warm.num_evaluations
        assert warm.cache_misses == 0
        assert frontier_signature(warm) == frontier_signature(cold)

    def test_corrupt_tail_line_tolerated(self, gemm_module, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        small_sweep(gemm_module, cache=EstimateCache(path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "truncated...\n')
        revived, counts = cache_counters(lambda: EstimateCache(path))
        assert counts["loaded"] == len(revived) > 0

    def test_stale_model_version_entries_ignored(self, gemm_module, tmp_path):
        import json

        path = str(tmp_path / "cache.jsonl")
        small_sweep(gemm_module, cache=EstimateCache(path))
        # Rewrite every line as if estimated under an older QoR model.
        lines = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                data = json.loads(line)
                data["model"] = -1
                lines.append(json.dumps(data))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        revived, counts = cache_counters(lambda: EstimateCache(path))
        # Stale entries discarded, not reused.
        assert counts["loaded"] == len(revived) == 0

    def test_warm_run_spawns_no_workers(self, gemm_module, monkeypatch):
        cache = EstimateCache()
        small_sweep(gemm_module, cache=cache)
        # A fully warm run must never fork a worker: the pool's workers
        # start on its first evaluation, and there is none.
        def boom(*args, **kwargs):
            raise AssertionError("worker forked during a fully warm run")

        monkeypatch.setattr(worker, "_ProcessLink", boom)
        warm = small_sweep(gemm_module, cache=cache, jobs=4)
        assert warm.evaluated_this_run == 0

    def test_keys_are_per_kernel(self, gemm_module):
        cache = EstimateCache()
        small_sweep(gemm_module, cache=cache)
        syrk = compile_source(SYRK_SOURCE, "syrk")
        result = small_sweep(syrk, cache=cache)
        assert result.cache_hits == 0  # different fingerprint, no collisions

    def test_direct_space_does_not_collide_across_kernels(self, gemm_module):
        # Two kernels with identically *shaped* spaces (same trip counts and
        # options) but different IR must not share cache entries when the
        # caller passes a directly constructed KernelDesignSpace: each space
        # carries its own kernel's digest.
        transposed = compile_source(GEMM_SOURCE.replace("B[k][j]", "B[j][k]"),
                                    "gemm")
        spaces = [KernelDesignSpace([8, 8, 8], False, False,
                                    ir_digest(module.functions()[0]))
                  for module in (gemm_module, transposed)]
        assert spaces[0].dimensions == spaces[1].dimensions
        assert spaces[0].fingerprint() != spaces[1].fingerprint()
        cache = EstimateCache()
        config = SweepConfig(cache=cache, **SMALL)
        for module, space in zip((gemm_module, transposed), spaces):
            task = KernelTask(key="kernel", module=module, func_name=None,
                              space=space)
            result = scheduler.explore_kernels([task], XC7Z020,
                                               config)["kernel"]
        assert result.cache_hits == 0

    def test_line_missing_fingerprint_tolerated(self, gemm_module, tmp_path):
        import json

        path = str(tmp_path / "cache.jsonl")
        cold = small_sweep(gemm_module, cache=EstimateCache(path))
        with open(path, "r", encoding="utf-8") as handle:
            first = json.loads(handle.readline())
        del first["fingerprint"]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(first) + "\n")
        # Must not raise.
        revived, counts = cache_counters(lambda: EstimateCache(path))
        assert counts["loaded"] == len(revived) == cold.num_evaluations


class TestCheckpoint:
    def test_file_bytes_equal_the_streaming_writer(self, tmp_path):
        # save() encodes with json.dumps (the C encoder); json.dump, which it
        # replaced, must have written the very same file.
        import io
        import json

        from repro.estimation.estimator import QOR_MODEL_VERSION
        from repro.estimation.platform import PLATFORMS

        module = compile_source(GEMM_SOURCE, "gemm")
        platforms = [XC7Z020, PLATFORMS["zcu102"]]
        space = KernelDesignSpace.from_function(module.functions()[0],
                                                platforms=platforms)
        records = {}
        for index, name in enumerate(space.platform_options):
            encoded = (0,) * (space.num_dimensions - 1) + (index,)
            platform = space.platform_named(name)
            design = apply_design_point(module, space.decode(encoded), platform)
            records[encoded] = EvaluationRecord.from_design(
                encoded, design, platform_hash=platform.config_hash())
        poisoned = (0,) * (space.num_dimensions - 2) + (1, 0)
        records[poisoned] = EvaluationRecord.quarantined(
            poisoned, space.decode(poisoned), "InjectedFault: poison")
        assert [record.ok for record in records.values()] \
            == [True, True, False]
        store = CheckpointStore(str(tmp_path / "state.json"))
        store.save("fp", records)

        streamed = io.StringIO()
        json.dump({
            "version": 2, "model": QOR_MODEL_VERSION, "fingerprint": "fp",
            "records": [record.to_json_dict() for record in records.values()],
        }, streamed)
        assert (tmp_path / "state.json").read_text(encoding="utf-8") \
            == streamed.getvalue()
        assert store.load(expected_fingerprint="fp") == records

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "state.json"))
        store.save("fp", {})
        assert store.load(expected_fingerprint="fp") == {}
        assert store.load(expected_fingerprint="other") is None

    def test_a_snapshot_of_another_qor_model_is_not_resumed(self, tmp_path,
                                                            monkeypatch):
        import json

        from repro.dse.runtime import checkpoint

        store = CheckpointStore(str(tmp_path / "state.json"))
        store.save("fp", {})
        assert store.load(expected_fingerprint="fp") is not None
        payload = json.loads((tmp_path / "state.json").read_text())
        del payload["model"]
        (tmp_path / "state.json").write_text(json.dumps(payload))
        assert store.load(expected_fingerprint="fp") is None
        store.save("fp", {})
        monkeypatch.setattr(checkpoint, "QOR_MODEL_VERSION",
                            getattr(checkpoint, "QOR_MODEL_VERSION", 0) + 1,
                            raising=False)
        assert store.load(expected_fingerprint="fp") is None

    def test_records_of_another_qor_model_are_evaluated_again(
            self, gemm_module, tmp_path, monkeypatch):
        from repro.dse.runtime import checkpoint
        from repro.estimation import estimator

        path = str(tmp_path / "ckpt")
        partial = small_sweep(gemm_module, checkpoint_dir=path, max_evaluations=5)
        assert partial.num_evaluations > 0
        version = estimator.QOR_MODEL_VERSION + 1
        monkeypatch.setattr(estimator, "QOR_MODEL_VERSION", version)
        monkeypatch.setattr(checkpoint, "QOR_MODEL_VERSION", version,
                            raising=False)
        resumed = small_sweep(gemm_module, checkpoint_dir=path)
        assert resumed.evaluated_this_run == resumed.num_evaluations
        assert frontier_signature(resumed) \
            == frontier_signature(small_sweep(gemm_module))

    def test_interrupted_resume_matches_uninterrupted(self, gemm_module, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        config = dict(num_samples=6, max_iterations=12, seed=11, batch_size=4)

        full = small_sweep(gemm_module, **config)

        # Simulate a kill after ~10 evaluations (enforced at batch boundaries),
        # then re-run from the checkpoint with the full budget.
        partial = small_sweep(gemm_module, **config, checkpoint_dir=checkpoint,
                              checkpoint_every=2, max_evaluations=10)
        assert partial.num_evaluations < full.num_evaluations

        resumed = small_sweep(gemm_module, **config, checkpoint_dir=checkpoint)
        assert frontier_signature(resumed) == frontier_signature(full)
        assert set(resumed.records) == set(full.records)

    def test_resume_skips_completed_work(self, gemm_module, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        small_sweep(gemm_module, checkpoint_dir=checkpoint, checkpoint_every=2)
        rerun = small_sweep(gemm_module, checkpoint_dir=checkpoint)
        assert rerun.evaluated_this_run == 0  # everything restored from disk

    def test_resume_with_different_config_starts_fresh(self, gemm_module, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        small_sweep(gemm_module, seed=11, checkpoint_dir=checkpoint,
                    checkpoint_every=2, max_evaluations=8)
        # Re-running under a different seed must NOT continue the seed-11
        # trajectory — it starts a fresh seed-12 run.
        resumed = small_sweep(gemm_module, seed=12, checkpoint_dir=checkpoint)
        fresh = small_sweep(gemm_module, seed=12)
        assert frontier_signature(resumed) == frontier_signature(fresh)

    def test_resume_without_checkpoint_starts_fresh(self, gemm_module, tmp_path):
        checkpoint = str(tmp_path / "missing")
        result = small_sweep(gemm_module, checkpoint_dir=checkpoint)
        assert result.num_evaluations > 0


@pytest.mark.parametrize("num_samples,cap", [(8, 1), (4, 5)])
def test_max_evaluations_is_checked_at_batch_boundaries(num_samples, cap):
    # Step 1's whole sample is evaluated, and the batch that reaches the
    # bound is not cut: 8 samples under a cap of 1, and 4 samples plus a
    # whole batch of 4 under a cap of 5, are 8 evaluations each.
    result = explore_kernel(compile_kernel("gemm", 8), XC7Z020,
                            num_samples=num_samples, max_iterations=12,
                            batch_size=4, max_evaluations=cap)
    assert result.evaluated_this_run == 8


class TestACachedSweepKeepsNoCheckpoint:
    """A sweep whose estimate cache has a file keeps no checkpoint: the
    cache never drops a record, so rerunning the sweep replays its
    trajectory from the cache."""

    SWEEP = dict(num_samples=6, max_iterations=8, seed=11, batch_size=4,
                 checkpoint_every=2)

    def sweep(self, module, tmp_path, max_evaluations=None):
        cache = EstimateCache(str(tmp_path / "cache.jsonl"))
        try:
            return small_sweep(module, checkpoint_dir=str(tmp_path / "ckpt"),
                               max_evaluations=max_evaluations, cache=cache,
                               **self.SWEEP)
        finally:
            cache.close()

    def test_a_rerun_replays_the_trajectory_from_the_cache(
            self, gemm_module, tmp_path):
        clean = small_sweep(gemm_module, **self.SWEEP)
        cache = EstimateCache(str(tmp_path / "cache.jsonl"))
        first = explore_kernel(gemm_module, XC7Z020, jobs=1, cache=cache,
                               checkpoint_dir=str(tmp_path / "ckpt"),
                               **self.SWEEP)
        cache.close()
        assert not (tmp_path / "ckpt").exists()
        cache_bytes = (tmp_path / "cache.jsonl").read_bytes()
        again = self.sweep(gemm_module, tmp_path)
        assert again.evaluated_this_run == again.cache_misses == 0
        assert again.cache_hits == again.num_evaluations
        assert list(again.records.items()) == list(first.records.items())
        assert frontier_signature(again) == frontier_signature(first) \
            == frontier_signature(clean)
        assert (tmp_path / "cache.jsonl").read_bytes() == cache_bytes
        assert not (tmp_path / "ckpt").exists()

    def test_the_cache_is_synced_where_a_checkpoint_would_be_saved(
            self, tmp_path, monkeypatch):
        events = []
        sync, save = EstimateCache.sync, CheckpointStore.save

        def recording_sync(cache):
            events.append("sync")
            sync(cache)

        def recording_save(store, *args):
            events.append("save")
            save(store, *args)

        monkeypatch.setattr(EstimateCache, "sync", recording_sync)
        monkeypatch.setattr(CheckpointStore, "save", recording_save)

        def sweep(name, cache=None):
            explore_module_kernels(
                compile_source(GEMM_SOURCE + SYRK_SOURCE, "pair"), XC7Z020,
                cache=cache, checkpoint_dir=str(tmp_path / name), **self.SWEEP)
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
        small_sweep(gemm_module, cache=cache)
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
        assert not (tmp_path / "ckpt").exists()
        full = small_sweep(gemm_module, **self.SWEEP)
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
        path = tmp_path / "ckpt" / "kernel.ckpt.json"
        small_sweep(gemm_module, checkpoint_dir=str(path.parent),
                    max_evaluations=5, **self.SWEEP)
        left = path.read_bytes()
        cached = self.sweep(gemm_module, tmp_path)
        assert cached.evaluated_this_run == cached.num_evaluations
        assert path.read_bytes() == left

    def test_a_repeated_kernel_keeps_no_checkpoint_of_its_own(self,
                                                              gemm_module,
                                                              tmp_path):
        # Two identical kernels without a cache: the second is a copy of the
        # first's result, which keeps its final checkpoint.
        space = KernelDesignSpace.from_function(gemm_module.functions()[0])
        tasks = [KernelTask(key=key, module=gemm_module, func_name=None,
                            space=space) for key in ("first", "second")]
        results = scheduler.explore_kernels(
            tasks, XC7Z020, SweepConfig(**self.SWEEP),
            checkpoint_dir=str(tmp_path / "ckpt"))
        assert results["second"].shared_hits > 0
        assert sorted(path.name for path in (tmp_path / "ckpt").iterdir()) \
            == ["first.ckpt.json"]


@pytest.fixture
def collections_seen():
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


class TestEvaluationArena:
    """``evaluate_encoded`` pauses the cyclic collector for its length and
    collects once, after the transformed module is gone."""

    @staticmethod
    def context(module, **fields):
        space = KernelDesignSpace.from_function(module.functions()[0])
        return KernelContext(module=module, func_name=None, platform=XC7Z020,
                             space=space, **fields), (0,) * space.num_dimensions

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
        assert worker.COLLECTOR_ARENA._depth == 0

    def test_nested_evaluations_resume_at_the_outermost_exit(
            self, gemm_module, collections_seen):
        context, encoded = self.context(gemm_module)
        gc.enable()
        del collections_seen[:]
        with worker.COLLECTOR_ARENA:
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
            with worker.COLLECTOR_ARENA:
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
        assert worker.COLLECTOR_ARENA._depth == 0 and gc.isenabled()
        # Only the arena collected, at most once per evaluation.
        assert set(collections_seen) == {0} and len(collections_seen) <= 24


class TestModelSweepArena:
    """``explore_model`` stages and composes inside the collector arena;
    the sweep between them collects as it always did."""

    @staticmethod
    def sweep():
        return explore_dnn("vgg16", VU9P_SLR, graph_level=7, max_nodes=3,
                           jobs=1, seed=7, batch_size=2, num_samples=2,
                           max_iterations=2)

    def test_staging_and_composing_run_with_the_collector_paused(
            self, monkeypatch, collections_seen):
        observed = []

        def watching(function):
            def watched(*args, **kwargs):
                before = len(collections_seen)
                enabled = gc.isenabled()
                result = function(*args, **kwargs)
                observed.append((function.__name__, enabled, gc.isenabled(),
                                 collections_seen[before:]))
                return result
            return watched

        for name in ("_staged_tasks", "compose_model_frontier"):
            monkeypatch.setattr(model, name, watching(getattr(model, name)))
        gc.enable()
        result = self.sweep()
        assert result.frontier
        assert observed == [("_staged_tasks", False, False, []),
                            ("compose_model_frontier", False, False, [])]
        assert gc.isenabled()

    def test_each_arena_exit_collects_once_and_resumes(self, monkeypatch,
                                                        collections_seen):
        arena, exits = worker.COLLECTOR_ARENA, []

        class Watched:
            def __enter__(self):
                arena.__enter__()

            def __exit__(self, *exc_info):
                before = len(collections_seen)
                arena.__exit__(*exc_info)
                exits.append((collections_seen[before:], gc.isenabled()))

        monkeypatch.setattr(model, "COLLECTOR_ARENA", Watched())
        gc.enable()
        self.sweep()
        assert exits == [([0], True), ([0], True)]

    def test_a_staging_error_resumes_the_collector(self, monkeypatch,
                                                   collections_seen):
        def failing(module):
            raise RuntimeError("lowering failed")

        monkeypatch.setattr(model, "lower_graph_to_loops", failing)
        gc.enable()
        with pytest.raises(RuntimeError, match="lowering failed"):
            self.sweep()
        assert gc.isenabled()
        assert worker.COLLECTOR_ARENA._depth == 0


class TestExploreModuleKernels:
    def two_kernel_module(self):
        return compile_source(GEMM_SOURCE + SYRK_SOURCE, "pair")

    def sweep(self, module, jobs, **overrides):
        config = dict(num_samples=4, max_iterations=6, seed=3, batch_size=4)
        config.update(overrides)
        return explore_module_kernels(module, XC7Z020, jobs=jobs, **config)

    def test_explores_every_function(self):
        results = self.sweep(self.two_kernel_module(), jobs=1)
        assert set(results) == {"gemm", "syrk"}
        for result in results.values():
            assert result.best_record is not None
            assert result.frontier

    def test_concurrent_matches_serial(self):
        serial = self.sweep(self.two_kernel_module(), jobs=1)
        concurrent = self.sweep(self.two_kernel_module(), jobs=2)
        for name in serial:
            assert frontier_signature(serial[name]) \
                == frontier_signature(concurrent[name])

    def test_shared_cache_across_runs(self):
        cache = EstimateCache()
        module = self.two_kernel_module()
        self.sweep(module, jobs=1, cache=cache)
        warm = self.sweep(module, jobs=1, cache=cache)
        for result in warm.values():
            assert result.cache_misses == 0
            assert result.cache_hits == result.num_evaluations

    def test_function_subset_and_unknown_name(self):
        module = self.two_kernel_module()
        results = self.sweep(module, jobs=1, func_names=["gemm"])
        assert set(results) == {"gemm"}
        with pytest.raises(ValueError):
            self.sweep(module, jobs=1, func_names=["nope"])

    @pytest.mark.parametrize("entry", [
        "estimate_baseline", "apply_design_point", "explore_kernel",
        "explore_kernels"])
    def test_every_entry_reports_an_unknown_function(self, gemm_module, entry):
        space = KernelDesignSpace.from_function(gemm_module.functions()[0])
        point = space.decode((0,) * space.num_dimensions)
        calls = {
            "estimate_baseline": lambda: estimate_baseline(
                gemm_module, XC7Z020, func_name="missing"),
            "apply_design_point": lambda: apply_design_point(
                gemm_module, point, XC7Z020, func_name="missing"),
            "explore_kernel": lambda: explore_kernel(
                gemm_module, XC7Z020, func_name="missing"),
            "explore_kernels": lambda: scheduler.explore_kernels(
                [KernelTask(key="kernel", module=gemm_module,
                            func_name="missing", space=space)],
                XC7Z020, SweepConfig()),
        }
        with pytest.raises(ValueError,
                           match="function 'missing' not found in the module"):
            calls[entry]()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failing_trajectory_is_attributed_at_any_jobs(self, jobs,
                                                             monkeypatch):
        trajectory = scheduler._explore_trajectory

        def failing(task, *args):
            if task.key == "syrk":
                raise RuntimeError("no estimate")
            return trajectory(task, *args)

        monkeypatch.setattr(scheduler, "_explore_trajectory", failing)
        with pytest.raises(EvaluationFailure) as raised:
            self.sweep(self.two_kernel_module(), jobs=jobs)
        assert str(raised.value) \
            == "DSE for kernel 'syrk' failed: RuntimeError: no estimate"


class TestResultMaterialization:
    def test_best_design_matches_record(self, gemm_module):
        result = small_sweep(gemm_module)
        design = result.best_design()
        assert design.qor.latency == result.best_record.qor.latency
        assert design.point == result.best_record.point

    def test_emission_of_materialized_design(self, gemm_module):
        from repro.emit import emit_hlscpp

        result = small_sweep(gemm_module)
        code = emit_hlscpp(result.best_design().module)
        assert "void gemm(" in code

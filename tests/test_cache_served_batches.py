"""What a sweep that its estimate cache answers does not redo.

Against a persistent estimate cache without a byte bound (the condition
under which a finished kernel keeps no checkpoint), a batch the cache
answered in full neither moves the boundary a Ctrl-C saves nor counts
toward a periodic save: the cache already holds what such a checkpoint
would add, and ``--resume`` replays it with every point a hit.  Every other
sweep keeps its boundaries and periodic saves, byte for byte.  An explorer
draws from one generator, seeded once, and reads its state only for a
checkpoint.
"""

from __future__ import annotations

import hashlib
import os
import random

import pytest

from repro import obs
from repro.dse.engine import ExplorationPolicy
from repro.dse.runtime import (
    CheckpointStore,
    EstimateCache,
    ExplorerState,
    KernelTask,
    ModelScheduler,
    MultiKernelScheduler,
    ParallelExplorer,
    SweepConfig,
)
from repro.dse.space import KernelDesignSpace
from repro.estimation import VU9P_SLR, XC7Z020

from conftest import GEMM_SOURCE, compile_source
from test_dnn_dse import tiny_model

SWEEP = dict(num_samples=6, max_iterations=12, seed=11, jobs=1, batch_size=2,
             checkpoint_every=3)


@pytest.fixture
def gemm_module():
    return compile_source(GEMM_SOURCE, "gemm")


@pytest.fixture
def saves(monkeypatch):
    """``(file name, sha256[:16] of its bytes)`` per checkpoint save."""
    written = []
    save = CheckpointStore.save

    def recording_save(store, state):
        save(store, state)
        with open(store.path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()[:16]
        written.append((os.path.basename(store.path), digest))

    monkeypatch.setattr(CheckpointStore, "save", recording_save)
    return written


class Proposals:
    """Counts ``propose_batch`` calls; a Ctrl-C as the ``stop``-th starts
    (after a fully merged batch, so the boundary to save is the last one)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.stop = None
        propose = ExplorationPolicy.propose_batch

        def counted(*args, **kwargs):
            self.calls += 1
            if self.calls == self.stop:
                raise KeyboardInterrupt
            return propose(*args, **kwargs)

        monkeypatch.setattr(ExplorationPolicy, "propose_batch",
                            staticmethod(counted))


@pytest.fixture
def proposals(monkeypatch):
    return Proposals(monkeypatch)


def explorer(tmp_path, cache=None):
    return ParallelExplorer(XC7Z020, SweepConfig(cache=cache, **SWEEP),
                            checkpoint_path=str(tmp_path / "dse.ckpt.json"))


#: The saves of SWEEP on gemm as every sweep wrote them before: after the
#: samples and after every second batch of two, then the final one.
PERIODIC = [("dse.ckpt.json", "ffa00176acb681e7"),
            ("dse.ckpt.json", "9d23123561417f4c"),
            ("dse.ckpt.json", "82a9df6650061270"),
            ("dse.ckpt.json", "fdefd16ac838950c")]
FINAL = ("dse.ckpt.json", "fdefd16ac838950c")
#: ... and interrupted as its fourth proposal starts: the boundary after the
#: third batch.
INTERRUPTED = [*PERIODIC[:2], ("dse.ckpt.json", "91b158b0103f9556")]


def renamed(saves, name):
    return [(name, digest) for _, digest in saves]


# -- sweeps that keep every boundary and periodic save --------------------------------------


class TestOtherSweepsKeepTheirCheckpoints:
    """Each save's bytes, in order, are the ones written before cache-served
    batches stopped moving checkpoints."""

    def test_without_a_cache(self, gemm_module, tmp_path, saves, proposals):
        explorer(tmp_path).explore(gemm_module)
        assert saves == PERIODIC + [FINAL]
        del saves[:]
        proposals.stop = proposals.calls + 4
        with pytest.raises(KeyboardInterrupt):
            explorer(tmp_path).explore(gemm_module)
        assert saves == INTERRUPTED

    def test_with_a_bounded_cache(self, gemm_module, tmp_path, saves,
                                  proposals):
        cache = EstimateCache(str(tmp_path / "cache.jsonl"), max_bytes=10**9)
        try:
            explorer(tmp_path / "cold", cache).explore(gemm_module)
            del saves[:]
            warm = explorer(tmp_path, cache).explore(gemm_module)
            assert warm.cache_misses == 0
            assert saves == PERIODIC + [FINAL]
            del saves[:]
            proposals.stop = proposals.calls + 4
            with pytest.raises(KeyboardInterrupt):
                explorer(tmp_path, cache).explore(gemm_module)
        finally:
            cache.close()
        assert saves == INTERRUPTED

    def test_with_a_repeated_kernel(self, gemm_module, tmp_path, saves,
                                    proposals):
        # The second kernel is a copy of the first's result: it proposes
        # nothing and saves nothing.
        space = KernelDesignSpace.from_function(gemm_module.functions()[0])
        tasks = [KernelTask(key=key, module=gemm_module, func_name=None,
                            space=space) for key in ("first", "second")]
        results = MultiKernelScheduler(
            XC7Z020, SweepConfig(**SWEEP),
            checkpoint_dir=str(tmp_path / "ckpt")).explore_kernels(tasks)
        assert results["second"].shared_with == "first"
        assert proposals.calls == 6  # the first kernel's batches
        assert saves == renamed(PERIODIC + [FINAL], "first.ckpt.json")


# -- a persistent cache without a byte bound ------------------------------------------------


class TestCacheServedBatchesAreNotCheckpointed:
    def sweep(self, module, tmp_path, resume=False):
        """``module`` swept against the cache file in ``tmp_path``, and the
        counters of the sweep."""
        cache = EstimateCache(str(tmp_path / "cache.jsonl"))
        try:
            with obs.session() as session:
                result = explorer(tmp_path, cache).explore(module,
                                                           resume=resume)
        finally:
            cache.close()
        return result, session.metrics.counters

    def test_a_batch_with_a_miss_moves_them_as_before(self, gemm_module,
                                                      tmp_path, saves):
        cold, counters = self.sweep(gemm_module, tmp_path)
        assert cold.cache_misses == cold.num_evaluations
        assert saves == PERIODIC  # then retired, not saved
        assert counters["dse.checkpoint.retired"] == 1

    def test_a_warm_sweep_writes_no_checkpoint(self, gemm_module, tmp_path,
                                               saves):
        self.sweep(gemm_module, tmp_path)
        del saves[:]
        warm, counters = self.sweep(gemm_module, tmp_path)
        assert warm.cache_hits == warm.num_evaluations
        assert saves == []
        assert "dse.checkpoint.saves" not in counters
        assert counters["dse.checkpoint.retired"] == 1

    def test_a_ctrl_c_saves_the_boundary_the_sweep_started_from(
            self, gemm_module, tmp_path, saves, proposals):
        first, _ = self.sweep(gemm_module, tmp_path)
        cache_bytes = (tmp_path / "cache.jsonl").read_bytes()
        del saves[:]
        proposals.stop = proposals.calls + 4
        with pytest.raises(KeyboardInterrupt):
            self.sweep(gemm_module, tmp_path)
        (name, _), = saves
        state = CheckpointStore(str(tmp_path / name)).load()
        assert (state.records, state.samples_done, state.iterations_done) \
            == ({}, False, 0)
        assert state.rng_state == random.Random(SWEEP["seed"]).getstate()

        resumed, counters = self.sweep(gemm_module, tmp_path, resume=True)
        assert resumed.cache_misses == 0
        assert counters["dse.checkpoint.retired"] == 1
        assert list(resumed.records.items()) == list(first.records.items())
        assert resumed.frontier == first.frontier
        assert (tmp_path / "cache.jsonl").read_bytes() == cache_bytes
        assert not (tmp_path / "dse.ckpt.json").exists()

    def test_a_ctrl_c_in_a_warm_model_sweep_resumes_from_the_cache(
            self, tmp_path, proposals):
        def sweep(resume=False):
            cache = EstimateCache(str(tmp_path / "cache.jsonl"))
            try:
                return ModelScheduler(
                    VU9P_SLR, SweepConfig(cache=cache, **SWEEP),
                    checkpoint_dir=str(tmp_path / "ckpt"),
                ).explore(tiny_model(), graph_level=3, resume=resume)
            finally:
                cache.close()

        first = sweep()
        cold_proposals = proposals.calls
        cache_bytes = (tmp_path / "cache.jsonl").read_bytes()
        proposals.stop = proposals.calls + cold_proposals // 2
        with pytest.raises(KeyboardInterrupt):
            sweep()
        assert list((tmp_path / "ckpt").glob("*.ckpt.json"))
        resumed = sweep(resume=True)
        assert resumed.cache_misses == resumed.evaluated_this_run == 0
        assert resumed.frontier_json() == first.frontier_json()
        assert {name: list(result.records.items())
                for name, result in resumed.node_results.items()} \
            == {name: list(result.records.items())
                for name, result in first.node_results.items()}
        assert (tmp_path / "cache.jsonl").read_bytes() == cache_bytes
        assert not list((tmp_path / "ckpt").glob("*.ckpt.json"))


# -- one generator per explorer -------------------------------------------------------------


@pytest.fixture
def seedings(monkeypatch):
    """``Random.seed`` calls, by argument."""
    calls = []
    seed = random.Random.seed

    def counted(rng, *args, **kwargs):
        calls.append(args[0] if args else kwargs.get("a"))
        return seed(rng, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counted)
    return calls


class TestOneGenerator:
    def test_a_fresh_state_reads_as_the_seeded_generator(self):
        state = ExplorerState.fresh("fp", seed=5)
        assert state.rng_state == random.Random(5).getstate()

    def test_fresh_and_loaded_states_draw_what_the_seed_draws(self, tmp_path,
                                                             seedings):
        store = CheckpointStore(str(tmp_path / "state.json"))
        store.save(ExplorerState.fresh("fp", seed=5))
        fresh = ExplorerState.fresh("fp", seed=5)
        del seedings[:]
        loaded = store.load(expected_fingerprint="fp")
        assert seedings == []  # restored, not seeded and overwritten
        reference = random.Random(5)
        expected = [reference.random() for _ in range(4)]
        assert [fresh.rng.random() for _ in range(4)] == expected
        assert [loaded.rng.random() for _ in range(4)] == expected

    def test_an_explorer_seeds_once_and_reads_its_state_once(
            self, gemm_module, tmp_path, seedings, monkeypatch):
        reads = []
        getstate = random.Random.getstate
        monkeypatch.setattr(random.Random, "getstate",
                            lambda rng: reads.append(rng) or getstate(rng))
        cache = EstimateCache(str(tmp_path / "cache.jsonl"))
        try:
            explorer(tmp_path, cache).explore(gemm_module)
            del seedings[:], reads[:]
            warm = explorer(tmp_path, cache).explore(gemm_module)
        finally:
            cache.close()
        assert warm.cache_misses == 0
        assert seedings == [SWEEP["seed"]]
        assert len(reads) == 1  # the boundary a Ctrl-C would save

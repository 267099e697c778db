"""The checkpoints a sweep without a cache file writes.

A cacheless sweep, and one with an in-memory estimate cache, saves its
periodic, final and Ctrl-C checkpoints byte for byte as it always did (each
snapshot names its QoR model); a sweep whose cache has a file saves none
(``tests/test_cache_is_the_checkpoint.py``).  An explorer draws from one
generator, seeded once, and reads its state only for a checkpoint.
"""

from __future__ import annotations

import hashlib
import os
import random

import pytest

from repro.dse.engine import ExplorationPolicy
from repro.dse.runtime import (
    CheckpointStore,
    EstimateCache,
    ExplorerState,
    KernelTask,
    MultiKernelScheduler,
    ParallelExplorer,
    SweepConfig,
)
from repro.dse.space import KernelDesignSpace
from repro.estimation import XC7Z020

from conftest import GEMM_SOURCE, compile_source

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


#: The saves of SWEEP on gemm: after the samples and after every second
#: batch of two, then the final one.
PERIODIC = [("dse.ckpt.json", "5d15779605fcabb9"),
            ("dse.ckpt.json", "059e100fb0fd6588"),
            ("dse.ckpt.json", "aec4a9475edb0b36"),
            ("dse.ckpt.json", "6f3f9b4e3d6f7174")]
FINAL = ("dse.ckpt.json", "6f3f9b4e3d6f7174")
#: ... and interrupted as its fourth proposal starts: the boundary after the
#: third batch.
INTERRUPTED = [*PERIODIC[:2], ("dse.ckpt.json", "af8a62c3b048eda3")]


def renamed(saves, name):
    return [(name, digest) for _, digest in saves]


# -- sweeps that keep every boundary and periodic save --------------------------------------


class TestOtherSweepsKeepTheirCheckpoints:
    """Each save's bytes, in order, are pinned."""

    def test_without_a_cache(self, gemm_module, tmp_path, saves, proposals):
        explorer(tmp_path).explore(gemm_module)
        assert saves == PERIODIC + [FINAL]
        del saves[:]
        proposals.stop = proposals.calls + 4
        with pytest.raises(KeyboardInterrupt):
            explorer(tmp_path).explore(gemm_module)
        assert saves == INTERRUPTED

    def test_with_an_in_memory_cache(self, gemm_module, tmp_path, saves,
                                     proposals):
        # Even when it answers every point: the cache dies with the process.
        cache = EstimateCache()
        explorer(tmp_path / "cold", cache).explore(gemm_module)
        del saves[:]
        warm = explorer(tmp_path, cache).explore(gemm_module)
        assert warm.cache_misses == 0
        assert saves == PERIODIC + [FINAL]
        del saves[:]
        proposals.stop = proposals.calls + 4
        with pytest.raises(KeyboardInterrupt):
            explorer(tmp_path, cache).explore(gemm_module)
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

    def test_an_explorer_seeds_once_and_reads_its_state_for_checkpoints(
            self, gemm_module, tmp_path, seedings, monkeypatch, saves):
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
        assert reads == [] and saves == []  # no checkpoint to take
        explorer(tmp_path / "bare").explore(gemm_module)
        # A checkpointing sweep reads it at each of its 8 boundaries (the
        # start and after each of 7 batches) and for each save.
        assert saves == PERIODIC + [FINAL]
        assert len(reads) == 8 + len(saves)

"""The checkpoints a sweep without a cache file writes.

A cacheless sweep, and one with an in-memory estimate cache, saves its
periodic, final and Ctrl-C checkpoints where it always did, each holding
the records it always held (and naming its QoR model); re-run against its
checkpoint, it replays the trajectory and saves where the uninterrupted
sweep does.  A sweep whose
cache has a file saves none (``tests/test_cache_is_the_checkpoint.py``).
An explorer draws from one generator, seeded once, and never reads its
state: a checkpoint holds records only.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

from repro.dse.engine import ExplorationPolicy
from repro.dse.runtime import (
    CheckpointStore,
    EstimateCache,
    KernelTask,
    SweepConfig,
)
from repro.dse.runtime.scheduler import explore_kernels
from repro.dse.space import KernelDesignSpace
from repro.estimation import XC7Z020
from repro.pipeline import explore_kernel

from conftest import GEMM_SOURCE, compile_source

SWEEP = dict(num_samples=6, max_iterations=12, seed=11, jobs=1, batch_size=2,
             checkpoint_every=3)


@pytest.fixture
def gemm_module():
    return compile_source(GEMM_SOURCE, "gemm")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture
def saves(monkeypatch):
    """Per checkpoint save: ``(file name, number of records it holds,
    sha256[:16] of their JSON, sha256[:16] of the file's bytes)``."""
    written = []
    save = CheckpointStore.save

    def recording_save(store, fingerprint, records):
        save(store, fingerprint, records)
        with open(store.path, "rb") as handle:
            data = handle.read()
        held = json.dumps(json.loads(data)["records"]).encode()
        written.append((os.path.basename(store.path), len(records),
                        sha(held), sha(data)))

    monkeypatch.setattr(CheckpointStore, "save", recording_save)
    return written


class Proposals:
    """Counts ``propose_batch`` calls; a Ctrl-C as the ``stop``-th starts
    (after a fully merged batch)."""

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


def sweep(module, directory, cache=None):
    return explore_kernel(module, XC7Z020, cache=cache,
                          checkpoint_dir=str(directory), **SWEEP)


#: The records a save of SWEEP on gemm holds, by their number: a prefix of
#: the trajectory, pinned (as sha256[:16] of their JSON) from the commit
#: before checkpoints held records only, whose saves held the same lists.
HELD = {6: "565f72c6287a9427", 10: "6c0dde67aaaad23c", 12: "8a05a65ee41bbdc5",
        14: "d1888573098d581f", 16: "d13579629bf7884a", 18: "0c3504abae9353f8"}
#: ... and the bytes of the file that holds them (which names the sweep's
#: fingerprint: taken again when the cleanup tail was cut to four passes,
#: the files differing from the ones before in the fingerprint alone).
BYTES = {6: "817b93fc49d3a653", 10: "9fdab1d8b8633f53", 12: "66ff5e1275840952",
         14: "b5ea4b7133728a23", 16: "641ff941c3480e93", 18: "5e1e364621834630"}
#: A full sweep saves after the samples and after every second batch of two,
#: then once more at the end; interrupted as its fourth proposal starts, it
#: saves the 12 records of three batches; re-run, it replays them and saves
#: where the uninterrupted sweep does.
PERIODIC = [6, 10, 14, 18]
FINAL = [18]
INTERRUPTED = [6, 10, 12]
RESUMED = [16, 18]


def held(counts, name="kernel.ckpt.json"):
    return [(name, count, HELD[count], BYTES[count]) for count in counts]


# -- sweeps that keep their checkpoints ----------------------------------------------------


class TestOtherSweepsKeepTheirCheckpoints:
    """Each save's records and bytes, in order, are pinned."""

    def test_without_a_cache(self, gemm_module, tmp_path, saves, proposals):
        sweep(gemm_module, tmp_path / "full")
        assert saves == held(PERIODIC + FINAL)
        del saves[:]
        proposals.stop = proposals.calls + 4
        with pytest.raises(KeyboardInterrupt):
            sweep(gemm_module, tmp_path)
        assert saves == held(INTERRUPTED)
        del saves[:]
        resumed = sweep(gemm_module, tmp_path)
        assert saves == held(RESUMED)
        assert resumed.evaluated_this_run == 18 - 12

    def test_with_an_in_memory_cache(self, gemm_module, tmp_path, saves,
                                     proposals):
        # Even when it answers every point: the cache dies with the process.
        cache = EstimateCache()
        sweep(gemm_module, tmp_path / "cold", cache)
        del saves[:]
        warm = sweep(gemm_module, tmp_path / "warm", cache)
        assert warm.cache_misses == 0
        assert saves == held(PERIODIC + FINAL)
        del saves[:]
        proposals.stop = proposals.calls + 4
        with pytest.raises(KeyboardInterrupt):
            sweep(gemm_module, tmp_path, cache)
        assert saves == held(INTERRUPTED)
        del saves[:]
        resumed = sweep(gemm_module, tmp_path, cache)
        assert saves == held(RESUMED)
        # The cache is asked first; what the checkpoint serves counts in
        # neither of its figures.
        assert (resumed.cache_hits, resumed.cache_misses) == (18, 0)

    def test_with_a_repeated_kernel(self, gemm_module, tmp_path, saves,
                                    proposals):
        # The second kernel is a copy of the first's result: it proposes
        # nothing and saves nothing.
        space = KernelDesignSpace.from_function(gemm_module.functions()[0])
        tasks = [KernelTask(key=key, module=gemm_module, func_name=None,
                            space=space) for key in ("first", "second")]
        results = explore_kernels(tasks, XC7Z020, SweepConfig(**SWEEP),
                                  checkpoint_dir=str(tmp_path / "ckpt"))
        assert results["second"].shared_with == "first"
        assert proposals.calls == 6  # the first kernel's batches
        assert saves == held(PERIODIC + FINAL, "first.ckpt.json")


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
    def test_every_run_draws_what_the_seed_draws(self, gemm_module, tmp_path,
                                                  monkeypatch, proposals):
        # A re-run restores no generator: it starts at step 1 with a
        # freshly seeded one, as a fresh run does.
        states = []
        initial_batch = ExplorationPolicy.initial_batch

        def recording(space, rng, num_samples):
            states.append(rng.getstate())
            return initial_batch(space, rng, num_samples)

        monkeypatch.setattr(ExplorationPolicy, "initial_batch",
                            staticmethod(recording))
        proposals.stop = 4
        with pytest.raises(KeyboardInterrupt):
            sweep(gemm_module, tmp_path)
        sweep(gemm_module, tmp_path)
        assert states == [random.Random(SWEEP["seed"]).getstate()] * 2

    def test_an_explorer_seeds_once_and_never_reads_its_state(
            self, gemm_module, tmp_path, seedings, monkeypatch, saves):
        reads = []
        getstate = random.Random.getstate
        monkeypatch.setattr(random.Random, "getstate",
                            lambda rng: reads.append(rng) or getstate(rng))
        cache = EstimateCache(str(tmp_path / "cache.jsonl"))
        try:
            sweep(gemm_module, tmp_path, cache)
            del seedings[:], reads[:]
            warm = sweep(gemm_module, tmp_path, cache)
        finally:
            cache.close()
        assert warm.cache_misses == 0
        assert seedings == [SWEEP["seed"]]
        assert reads == [] and saves == []  # no checkpoint to take
        sweep(gemm_module, tmp_path / "bare")
        resumed = sweep(gemm_module, tmp_path / "bare")
        assert resumed.evaluated_this_run == 0
        # A checkpoint holds records only: neither saving one nor
        # continuing from one reads the generator, and each run seeds its own once.
        assert saves == held(PERIODIC + FINAL + FINAL)
        assert seedings == [SWEEP["seed"]] * 3
        assert reads == []

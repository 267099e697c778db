"""A sweep with a persistent estimate cache keeps no checkpoint.

The cache never drops a record, and a trajectory is a function of its seed
and of the records it has seen: rerunning an interrupted or capped sweep
against its cache file replays the trajectory, evaluates only the points
no earlier run stored, and ends where the uninterrupted sweep ends — same
frontier, same records, same cache file.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.dse.runtime import CheckpointStore, EstimateCache
from repro.dse.runtime.worker import Supervisor
from repro.estimation import VU9P_SLR, XC7Z020
from repro.pipeline import explore_dnn, explore_kernel

from conftest import GEMM_SOURCE, compile_source
from test_dnn_dse import repeated_model, tiny_model

GEMM = dict(num_samples=6, max_iterations=12, seed=11, batch_size=2,
            checkpoint_every=3)
MODEL = dict(num_samples=3, max_iterations=4, seed=7, batch_size=2,
             checkpoint_every=1)


def gemm_sweep(directory, jobs, cap=None):
    cache = EstimateCache(str(directory / "cache.jsonl"))
    try:
        result = explore_kernel(
            compile_source(GEMM_SOURCE, "gemm"), XC7Z020, cache=cache,
            jobs=jobs, checkpoint_dir=str(directory / "ckpt"),
            max_evaluations=cap, **GEMM)
    finally:
        cache.close()
    return {"kernel": result}, [point.encoded for point in result.frontier]


def model_sweep(model):
    def sweep(directory, jobs, cap=None):
        cache = EstimateCache(str(directory / "cache.jsonl"))
        try:
            result = explore_dnn(
                model(), VU9P_SLR, graph_level=3, cache=cache, jobs=jobs,
                checkpoint_dir=str(directory / "ckpt"), max_evaluations=cap,
                **MODEL)
        finally:
            cache.close()
        return result.node_results, result.frontier_json()
    return sweep


#: Each sweep, and the cap that stops it part-way.
SWEEPS = {"gemm": (gemm_sweep, 5),
          "tiny": (model_sweep(tiny_model), 2),
          "repeated": (model_sweep(repeated_model), 2)}


def cache_lines(directory) -> list[str]:
    path = directory / "cache.jsonl"  # created by the first store
    return path.read_text().splitlines() if path.exists() else []


def stored_keys(directory) -> set:
    return {(line["fingerprint"], tuple(line["record"]["encoded"]))
            for line in map(json.loads, cache_lines(directory))}


class Backend:
    """Wraps every backend's ``evaluate``: counts the calls, records what
    they dispatch, and raises KeyboardInterrupt as the ``stop``-th starts."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.stop = None
        self.dispatched: list[tuple[str, tuple[int, ...]]] = []
        lock = threading.Lock()  # coordinator threads share the backend
        evaluate = Supervisor.evaluate

        def counted(backend, key, batch):
            with lock:
                self.calls += 1
                if self.calls == self.stop:
                    raise KeyboardInterrupt
                self.dispatched.extend((key, tuple(e)) for e in batch)
            return evaluate(backend, key, batch)

        monkeypatch.setattr(Supervisor, "evaluate", counted)


@pytest.fixture
def backend(monkeypatch):
    def no_checkpoint(store, *args):
        raise AssertionError(f"checkpoint saved to {store.path}")

    monkeypatch.setattr(CheckpointStore, "save", no_checkpoint)
    return Backend(monkeypatch)


def outcome(sweep, directory, jobs, ordered=True, **options):
    """What a finished sweep leaves: frontier, records, cache file (its
    lines sorted unless ``ordered``: coordinator threads interleave their
    appends)."""
    results, frontier = sweep(directory, jobs, **options)
    assert not list(directory.rglob("*.ckpt.json"))
    lines = cache_lines(directory)
    return {"frontier": frontier,
            "records": {key: list(result.records.items())
                        for key, result in results.items()},
            "cache": lines if ordered else sorted(lines)}, results


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_a_ctrl_c_at_any_batch_reruns_to_the_uninterrupted_sweep(
        name, jobs, tmp_path, backend):
    sweep, _ = SWEEPS[name]
    ordered = jobs == 1 or name == "gemm"
    clean, _ = outcome(sweep, tmp_path / "clean", jobs, ordered)
    batches = backend.calls
    assert batches > 2
    for stop in range(1, batches + 1):
        directory = tmp_path / f"stop{stop}"
        backend.stop = backend.calls + stop
        with pytest.raises(KeyboardInterrupt):
            sweep(directory, jobs)
        backend.stop = None
        assert not list(directory.rglob("*.ckpt.json"))
        stored = stored_keys(directory)
        del backend.dispatched[:]
        rerun, results = outcome(sweep, directory, jobs, ordered)
        assert rerun == clean
        # It evaluates only what the interrupted run did not store, and
        # every stored record is a hit of the trajectory's owner.
        assert not stored & {(results[key].fingerprint, encoded)
                             for key, encoded in backend.dispatched}
        assert sum(result.cache_hits for result in results.values()
                   if result.shared_with is None) == len(stored)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_a_capped_sweep_reruns_to_the_uncapped_one(name, tmp_path, backend):
    # A model's nodes are each capped, so the rerun appends every node's
    # continuation after all the capped prefixes: same lines, another order.
    sweep, cap = SWEEPS[name]
    ordered = name == "gemm"
    clean, _ = outcome(sweep, tmp_path / "clean", 1, ordered)
    sweep(tmp_path / "capped", 1, cap=cap)
    assert not list(tmp_path.rglob("*.ckpt.json"))
    stored = stored_keys(tmp_path / "capped")
    assert 0 < len(stored) < len(clean["cache"])
    rerun, results = outcome(sweep, tmp_path / "capped", 1, ordered)
    assert rerun == clean
    assert sum(result.cache_hits for result in results.values()
               if result.shared_with is None) == len(stored)


class TestACappedRerunGoesFurther:
    """The cap counts the points a run has to evaluate: what the cache or
    the checkpoint serves is free, so each capped re-run against the same
    cache file or checkpoint directory goes one cap further along the
    trajectory, until the sweep is done."""

    @pytest.mark.parametrize("store", ["cache", "checkpoint"])
    def test_a_kernel_sweep(self, tmp_path, store):
        from repro.pipeline import compile_kernel

        def sweep(cap=None):
            capped = cap is not None
            cache = EstimateCache(str(tmp_path / "cache.jsonl")) \
                if capped and store == "cache" else None
            checkpoint_dir = str(tmp_path / "ckpt") \
                if capped and store == "checkpoint" else None
            try:
                return explore_kernel(
                    compile_kernel("gemm", 8), XC7Z020, num_samples=8,
                    max_iterations=16, batch_size=4, cache=cache,
                    checkpoint_dir=checkpoint_dir, max_evaluations=cap)
            finally:
                if cache is not None:
                    cache.close()

        runs = [sweep(cap=8) for _ in range(4)]
        assert [run.num_evaluations for run in runs] == [8, 16, 24, 24]
        assert [run.evaluated_this_run for run in runs] == [8, 8, 8, 0]
        clean = sweep()
        assert list(runs[-1].records.items()) == list(clean.records.items())
        assert runs[-1].frontier == clean.frontier

    def test_a_model_sweep(self, tmp_path):
        def sweep(cap=None):
            cache = EstimateCache(str(tmp_path / "cache.jsonl")) \
                if cap is not None else None
            try:
                return explore_dnn("vgg16", VU9P_SLR, graph_level=3,
                                   cache=cache, max_evaluations=cap)
            finally:
                if cache is not None:
                    cache.close()

        runs = [sweep(cap=4)]
        while runs[-1].evaluated_this_run:
            runs.append(sweep(cap=4))
        assert [run.num_evaluations for run in runs] == [28, 40, 52, 62, 62]
        assert all(run.evaluated_this_run == run.cache_misses
                   == run.num_evaluations - before.num_evaluations
                   for before, run in zip(runs, runs[1:]))
        assert runs[-1].frontier_json() == sweep().frontier_json()

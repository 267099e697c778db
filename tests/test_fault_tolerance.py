"""Tests for the fault-tolerant DSE runtime: fault-plan parsing, supervised
retries, deterministic quarantine, crash/hang/flaky/poison recovery at
several worker counts, crash-consistent persistence, and graceful
interruption with ``--resume``."""

import contextlib
import os
import random
import signal
import subprocess
import sys
import threading
import time
import warnings

import pytest

import repro
from repro import obs
from repro.dse import KernelDesignSpace
from repro.dse.apply import apply_design_point
from repro.dse.engine import ExplorationPolicy
from repro.dse.runtime import (
    CheckpointStore,
    EstimateCache,
    EvaluationFailure,
    EvaluationRecord,
    FaultPlan,
    InjectedFault,
    KernelContext,
    ParallelExplorer,
    ProcessPoolBackend,
    SerialBackend,
    SupervisionPolicy,
    SweepConfig,
    create_backend,
)
from repro.dse.runtime.faults import FAULT_MODES, stable_point_hash
from repro.dse.runtime.records import STATUS_QUARANTINED
from repro.dse.runtime.worker import evaluate_encoded
from repro.dse.space import KernelDesignPoint
from repro.estimation import XC7Z020
from repro.estimation.estimator import QoRResult
from repro.estimation.resources import ResourceUsage
from repro.tools.driver import build_parser, main

from conftest import GEMM_SOURCE, compile_source


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


def fast_policy(**overrides):
    """A supervision policy with near-zero backoff so retries don't stall tests."""
    config = dict(max_retries=2, backoff=0.001)
    config.update(overrides)
    return SupervisionPolicy(**config)


@pytest.fixture
def gemm_module():
    return compile_source(GEMM_SOURCE, "gemm")


def _context(module, faults=None):
    space = KernelDesignSpace.from_function(module.functions()[0])
    return KernelContext(module=module, func_name=None, platform=XC7Z020,
                         space=space, faults=faults)


def _sample_batch(context, count=2, seed=5):
    return [tuple(encoded) for encoded in ExplorationPolicy.initial_batch(
        context.space, random.Random(seed), count)]


# -- fault plan / supervision policy units --------------------------------------------------


class TestFaultPlan:
    def test_parse_bare_mode(self, tmp_path):
        plan = FaultPlan.parse("flaky")
        assert plan.mode == "flaky"
        assert plan.select == 4
        assert plan.times == 1
        assert os.path.isdir(plan.state_dir)  # auto-created ledger dir

    def test_parse_with_options(self, tmp_path):
        plan = FaultPlan.parse(
            f"crash:select=8,times=2,nth=3,state_dir={tmp_path}")
        assert plan == FaultPlan(mode="crash", select=8, times=2, nth=3,
                                 state_dir=str(tmp_path))

    def test_spec_round_trip(self, tmp_path):
        plan = FaultPlan.parse(f"hang:select=6,state_dir={tmp_path}")
        assert FaultPlan.parse(plan.to_spec()) == plan
        plan = FaultPlan(mode="hang", select=6, hang_seconds=2.0,
                         state_dir=str(tmp_path))
        assert FaultPlan.parse(plan.to_spec()) == plan

    @pytest.mark.parametrize("mode", FAULT_MODES)
    def test_every_field_round_trips(self, mode, tmp_path):
        plan = FaultPlan(mode=mode, select=3, times=2, nth=5,
                         hang_seconds=0.5, state_dir=str(tmp_path))
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultPlan.parse("segfault")

    @pytest.mark.parametrize("mode", ["disconnect", "stall", "garbage-frame"])
    def test_socket_transport_modes_are_gone(self, mode):
        with pytest.raises(ValueError, match=f"unknown fault mode '{mode}'"):
            FaultPlan.parse(f"{mode}:select=1")

    def test_rejects_unknown_option(self):
        with pytest.raises(ValueError, match="bad fault option"):
            FaultPlan.parse("flaky:rate=3")

    def test_selection_is_stable(self, tmp_path):
        plan = FaultPlan(mode="flaky", select=1, state_dir=str(tmp_path))
        assert plan.matches("k", (0, 1, 2))
        assert stable_point_hash("k", (0, 1, 2)) \
            == stable_point_hash("k", (0, 1, 2))
        # Different kernels select different victims for the same encoding.
        assert stable_point_hash("k", (0, 1, 2)) \
            != stable_point_hash("other", (0, 1, 2))

    def test_flaky_recovers_after_attempt_budget(self, tmp_path):
        plan = FaultPlan(mode="flaky", select=1, times=2,
                         state_dir=str(tmp_path))
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.apply("k", (1, 2))
        plan.apply("k", (1, 2))  # budget spent: recovered

    def test_attempt_ledger_is_cross_process(self, tmp_path):
        # A fresh plan object (as a respawned worker would build from the
        # pickled spec) sees the attempts recorded by the previous one.
        first = FaultPlan(mode="flaky", select=1, times=1,
                          state_dir=str(tmp_path))
        with pytest.raises(InjectedFault):
            first.apply("k", (3,))
        second = FaultPlan.parse(first.to_spec())
        second.apply("k", (3,))  # already over budget: no fault

    def test_poison_never_recovers(self, tmp_path):
        plan = FaultPlan(mode="poison", select=1, times=1,
                         state_dir=str(tmp_path))
        for _ in range(5):
            with pytest.raises(InjectedFault, match="poison"):
                plan.apply("k", (0,))

    def test_process_isolation_requirement(self, tmp_path):
        assert FaultPlan(mode="crash", state_dir=str(tmp_path)) \
            .requires_process_isolation
        assert FaultPlan(mode="hang", state_dir=str(tmp_path)) \
            .requires_process_isolation
        assert not FaultPlan(mode="flaky", state_dir=str(tmp_path)) \
            .requires_process_isolation
        assert not FaultPlan(mode="poison", state_dir=str(tmp_path)) \
            .requires_process_isolation


class TestSupervisionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="on_fault"):
            SupervisionPolicy(on_fault="explode")
        with pytest.raises(ValueError, match="task_timeout"):
            SupervisionPolicy(task_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            SupervisionPolicy(max_retries=-1)

    def test_backoff_doubles(self):
        policy = SupervisionPolicy(backoff=0.5)
        assert [policy.backoff_seconds(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]

    def test_schedule_doubles_from_base(self):
        policy = SupervisionPolicy(backoff=0.25)
        assert [policy.backoff_seconds(n) for n in range(5)] \
            == [0.25, 0.25, 0.5, 1.0, 2.0]

    def test_backend_promotion(self, gemm_module, tmp_path):
        contexts = {"k": _context(gemm_module)}
        assert isinstance(create_backend(contexts, SweepConfig()),
                          SerialBackend)
        # A task timeout forces a process pool even at one job: inline
        # evaluation cannot be killed.
        timed = create_backend(contexts, SweepConfig(
            supervision=fast_policy(task_timeout=30.0)))
        assert isinstance(timed, ProcessPoolBackend)
        timed.close()
        # So does a fault plan whose mode would take the coordinator down.
        promoted = create_backend(contexts, SweepConfig(faults=FaultPlan(
            mode="crash", state_dir=str(tmp_path))))
        assert isinstance(promoted, ProcessPoolBackend)
        promoted.close()


# -- the settle contract --------------------------------------------------------------------


class TestSettlement:
    """The fault model every backend feeds: one table, one object."""

    @staticmethod
    def settlement(module, total=1, **policy):
        from repro.dse.runtime.worker import _Settlement

        context = _context(module)
        batch = _sample_batch(context, total)
        return _Settlement("k", context, total, fast_policy(**policy)), batch

    @staticmethod
    def counters(session):
        return {name: value for name, value in session.metrics.counters.items()
                if name.startswith("dse.faults.")}

    def test_ok_settles_with_the_record(self, gemm_module):
        settlement, (encoded,) = self.settlement(gemm_module)
        record = evaluate_encoded(_context(gemm_module), encoded)
        assert settlement.settle(0, encoded, "ok", record, None) is False
        assert settlement.finish() == [record]

    def test_fatal_aborts_naming_kernel_and_point(self, gemm_module):
        settlement, (encoded,) = self.settlement(gemm_module)
        with pytest.raises(EvaluationFailure) as error:
            settlement.settle(0, encoded, "fatal", "PassError: skew", None)
        assert f"kernel 'k' point {encoded}: PassError: skew" \
            == str(error.value)

    @pytest.mark.parametrize("kind,counter", [
        ("error", None), ("crash", "dse.faults.crashes"),
        ("timeout", "dse.faults.timeouts")])
    @pytest.mark.parametrize("max_retries", [0, 2])
    def test_charged_faults_retry_then_quarantine(self, gemm_module, kind,
                                                  counter, max_retries):
        with obs.session() as session:
            settlement, (encoded,) = self.settlement(
                gemm_module, max_retries=max_retries)
            # Under the budget: every charged fault asks for a resubmit ...
            for _ in range(max_retries):
                assert settlement.settle(0, encoded, kind, "boom", None) is True
            # ... and the one over it settles the point as quarantined.
            assert settlement.settle(0, encoded, kind, "boom", None) is False
            (record,) = settlement.finish()
        assert not record.ok and record.error == "boom"
        assert record.encoded == encoded
        expected = {"dse.faults.quarantined": 1}
        if max_retries:
            expected["dse.faults.retries"] = max_retries
        if counter:
            expected[counter] = max_retries + 1
        assert self.counters(session) == expected

    def test_a_retried_point_settles_with_its_healthy_record(self, gemm_module):
        settlement, (encoded,) = self.settlement(gemm_module)
        record = evaluate_encoded(_context(gemm_module), encoded)
        assert settlement.settle(0, encoded, "error", "flaky", None) is True
        assert settlement.settle(0, encoded, "ok", record, None) is False
        assert settlement.finish() == [record]

    def test_on_fault_fail_aborts_instead_of_quarantining(self, gemm_module):
        settlement, (encoded,) = self.settlement(
            gemm_module, max_retries=1, on_fault="fail")
        assert settlement.settle(0, encoded, "error", "boom", None) is True
        with pytest.raises(EvaluationFailure, match="failed after 1 retries: "
                                                    "boom"):
            settlement.settle(0, encoded, "error", "boom", None)

    def test_attempts_are_counted_per_point(self, gemm_module):
        settlement, batch = self.settlement(gemm_module, total=2,
                                            max_retries=1)
        assert settlement.settle(0, batch[0], "error", "boom", None) is True
        assert settlement.settle(1, batch[1], "error", "boom", None) is True
        assert settlement.settle(1, batch[1], "error", "boom", None) is False
        assert settlement.settle(0, batch[0], "error", "boom", None) is False

    def test_telemetry_is_absorbed_in_submission_order(self, gemm_module):
        context = _context(gemm_module)
        with obs.session() as session:
            settlement, batch = self.settlement(gemm_module, total=3)
            assert settlement.traced
            outcomes = {
                index: obs.capture_task(evaluate_encoded, context, encoded,
                                        span_args={"point": index})
                for index, encoded in enumerate(batch)}
            # Completion order 2, 0, 1 — and 1 only after a charged fault.
            assert settlement.settle(1, batch[1], "error", "boom", None)
            for index in (2, 0, 1):
                record, telemetry = outcomes[index]
                assert not settlement.settle(index, batch[index], "ok",
                                             record, telemetry)
            assert "worker:k" not in session.tracer.tracks()
            records = settlement.finish()
        assert records == [outcomes[index][0] for index in range(3)]
        roots = [span.args["point"]
                 for span in session.tracer.tracks()["worker:k"]
                 if span.name == "dse.evaluate"]
        assert roots == [0, 1, 2]

    def test_untraced_without_a_session(self, gemm_module):
        settlement, _ = self.settlement(gemm_module)
        assert not settlement.traced


class _ScriptedLink:
    """A fake link: every attempt at a point plays the next outcome of that
    point's script.  ``crash`` is a charged loss of the worker."""

    alive = True
    closed = False

    def __init__(self, scripts):
        self.scripts = {encoded: list(kinds)
                        for encoded, kinds in scripts.items()}
        self.attempts = []

    def run(self, key, encoded, traced):
        kind = self.scripts[encoded].pop(0)
        self.attempts.append((encoded, kind))
        if kind == "raise":
            raise OSError("cannot fork")
        return kind, f"{kind} of {encoded}", None

    def abort(self):
        self.alive = False

    def close(self):
        self.closed = True


class TestSupervisor:
    """The one dispatch loop, over a fake link: this is what the link seam
    is for.  ``slots=0`` runs the link inline, in the caller's thread."""

    #: script -> how the point settles (max_retries=2).
    TABLE = [
        (["ok"], "ok"),
        (["error", "ok"], "ok"),
        (["timeout", "ok"], "ok"),
        (["crash", "crash", "ok"], "ok"),
        (["error", "crash", "timeout"], "quarantined"),
    ]

    @staticmethod
    def supervisor(module, link, slots):
        from repro.dse.runtime.worker import Supervisor

        supervisor = Supervisor({"k": _context(module)},
                                SweepConfig(supervision=fast_policy()))
        if slots:
            for _ in range(slots):
                supervisor._start_slot(link)
        else:
            supervisor._inline = link
        return supervisor

    @pytest.mark.parametrize("slots", [0, 1])
    def test_every_outcome_settles_in_submission_order(self, gemm_module,
                                                       slots):
        batch = _sample_batch(_context(gemm_module), len(self.TABLE))
        link = _ScriptedLink({encoded: script for encoded, (script, _)
                              in zip(batch, self.TABLE)})
        supervisor = self.supervisor(gemm_module, link, slots)
        with obs.session() as session:
            try:
                records = supervisor.evaluate("k", batch)
            finally:
                supervisor.close()
        for encoded, record, (script, settled) in zip(batch, records,
                                                      self.TABLE):
            if settled == "ok":
                assert record == f"ok of {encoded}"
            else:
                assert not record.ok and record.encoded == encoded
                assert record.error == f"{script[-1]} of {encoded}"
        # FIFO: the first pass runs in batch order, resubmits queue behind
        # it, and every script was played out exactly.
        assert [encoded for encoded, _ in link.attempts[:len(batch)]] == batch
        assert all(not script for script in link.scripts.values())
        assert {name: value for name, value in session.metrics.counters.items()
                if name.startswith("dse.faults.")} == {
            "dse.faults.retries": 6, "dse.faults.crashes": 3,
            "dse.faults.timeouts": 2, "dse.faults.quarantined": 1}
        # Shutdown woke the slot with its sentinel and said goodbye.
        assert not any(thread.is_alive() for thread in supervisor._threads)
        assert link.closed == bool(slots)

    @pytest.mark.parametrize("slots", [0, 1])
    def test_fatal_aborts(self, gemm_module, slots):
        (encoded,) = _sample_batch(_context(gemm_module), 1)
        supervisor = self.supervisor(gemm_module,
                                     _ScriptedLink({encoded: ["fatal"]}), slots)
        try:
            with pytest.raises(EvaluationFailure) as error:
                supervisor.evaluate("k", [encoded])
        finally:
            supervisor.close()
        assert str(error.value) == f"kernel 'k' point {encoded}: fatal of " \
                                   f"{encoded}"

    def test_a_link_that_cannot_attempt_aborts_the_run(self, gemm_module):
        # A slot never swallows the task it took: the failure reaches the
        # evaluate() that owns the point, and the slot retires its link.
        (encoded,) = _sample_batch(_context(gemm_module), 1)
        link = _ScriptedLink({encoded: ["raise"]})
        supervisor = self.supervisor(gemm_module, link, 1)
        try:
            with pytest.raises(EvaluationFailure, match="OSError: cannot fork"):
                supervisor.evaluate("k", [encoded])
        finally:
            supervisor.close()
        assert link.closed

    def test_request_stop_interrupts_a_waiting_evaluate(self, gemm_module):
        stop = threading.Event()
        release = threading.Event()

        class Stuck(_ScriptedLink):
            def run(self, key, encoded, traced):
                release.wait(30.0)
                return "ok", None, None

            def abort(self):
                release.set()

        from repro.dse.runtime.worker import Supervisor

        supervisor = Supervisor({"k": _context(gemm_module)}, SweepConfig(),
                                stop)
        supervisor._start_slot(Stuck({}))
        batch = _sample_batch(_context(gemm_module), 2)
        threading.Timer(0.1, supervisor.request_stop).start()
        with pytest.raises(KeyboardInterrupt):
            supervisor.evaluate("k", batch)
        supervisor.close()
        assert not any(thread.is_alive() for thread in supervisor._threads)


# -- quarantined records --------------------------------------------------------------------


class TestQuarantinedRecords:
    def _healthy_record(self, gemm_module):
        space = KernelDesignSpace.from_function(gemm_module.functions()[0])
        encoded = tuple(0 for _ in range(space.num_dimensions))
        design = apply_design_point(gemm_module, space.decode(encoded), XC7Z020)
        return space, EvaluationRecord.from_design(encoded, design)

    def test_json_round_trip(self, gemm_module):
        space, _ = self._healthy_record(gemm_module)
        encoded = tuple(0 for _ in range(space.num_dimensions))
        record = EvaluationRecord.quarantined(
            encoded, space.decode(encoded), "InjectedFault: poison")
        assert not record.ok
        assert record.status == STATUS_QUARANTINED
        revived = EvaluationRecord.from_json_dict(record.to_json_dict())
        assert revived == record

    def test_healthy_json_layout_unchanged(self, gemm_module):
        # Healthy records must serialize exactly as before the status field
        # existed, so old cache/checkpoint files stay valid byte-for-byte.
        _, record = self._healthy_record(gemm_module)
        data = record.to_json_dict()
        assert "status" not in data
        assert "error" not in data

    def test_excluded_from_frontier_but_visited(self, gemm_module):
        space, healthy = self._healthy_record(gemm_module)
        other = [0] * space.num_dimensions
        for axis, options in enumerate(space.dimensions):
            if len(options) > 1:
                other[axis] = 1
                break
        other = tuple(other)
        bad = EvaluationRecord.quarantined(other, space.decode(other), "boom")
        records = {healthy.encoded: healthy, bad.encoded: bad}
        frontier = ExplorationPolicy.frontier_of(records)
        assert [p.encoded for p in frontier] == [healthy.encoded]

    def test_cache_persists_quarantine(self, gemm_module, tmp_path):
        space, _ = self._healthy_record(gemm_module)
        encoded = tuple(0 for _ in range(space.num_dimensions))
        record = EvaluationRecord.quarantined(
            encoded, space.decode(encoded), "InjectedFault: poison")
        path = str(tmp_path / "cache.jsonl")
        cache = EstimateCache(path=path)
        cache.put("fp", record)
        cache.close()
        revived = EstimateCache(path=path).get("fp", encoded)
        assert revived == record
        assert not revived.ok


# -- end-to-end fault recovery --------------------------------------------------------------


class TestFlakyRecovery:
    """Retryable faults must not change the final frontier at any --jobs."""

    def _faulty(self, module, jobs, tmp_path, tag):
        plan = FaultPlan(mode="flaky", select=2, times=1,
                         state_dir=str(tmp_path / f"ledger-{tag}"))
        explorer = small_explorer(jobs=jobs, supervision=fast_policy(),
                                  faults=plan)
        result = explorer.explore(module)
        # The ledger proves faults actually fired (attempt files written).
        assert os.listdir(plan.state_dir)
        return result

    def test_flaky_frontier_matches_clean(self, gemm_module, tmp_path):
        clean = small_explorer().explore(gemm_module)
        serial = self._faulty(gemm_module, 1, tmp_path, "j1")
        pooled = self._faulty(gemm_module, 2, tmp_path, "j2")
        assert frontier_signature(serial) == frontier_signature(clean)
        assert frontier_signature(pooled) == frontier_signature(clean)
        assert set(serial.records) == set(clean.records)
        assert set(pooled.records) == set(clean.records)
        assert serial.num_quarantined == 0
        assert pooled.num_quarantined == 0


class TestCrashRecovery:
    def test_backend_respawns_and_retries(self, gemm_module, tmp_path):
        plan = FaultPlan(mode="crash", select=1, times=1,
                         state_dir=str(tmp_path / "ledger"))
        context = _context(gemm_module)
        backend = create_backend({"k": context}, SweepConfig(
            supervision=fast_policy(), faults=plan))
        assert isinstance(backend, ProcessPoolBackend)
        batch = _sample_batch(context, 2)
        with obs.session() as session:
            try:
                records = backend.evaluate("k", batch)
            finally:
                backend.close()
        clean_context = _context(gemm_module)
        expected = [evaluate_encoded(clean_context, encoded)
                    for encoded in batch]
        assert records == expected
        # Each point crashed its worker once; each crash replaced one worker.
        counters = session.metrics.counters
        assert counters["dse.faults.crashes"] == len(batch)
        assert counters["dse.pool.respawns"] == len(batch)

    def test_crash_frontier_matches_clean(self, gemm_module, tmp_path):
        config = dict(num_samples=4, max_iterations=4, batch_size=2, seed=11)
        clean = small_explorer(**config).explore(gemm_module)
        plan = FaultPlan(mode="crash", select=3, times=1,
                         state_dir=str(tmp_path / "ledger"))
        faulty = small_explorer(jobs=2, supervision=fast_policy(),
                                faults=plan, **config).explore(gemm_module)
        assert frontier_signature(faulty) == frontier_signature(clean)
        assert set(faulty.records) == set(clean.records)


    def test_a_worker_that_cannot_start_aborts_the_sweep(self, gemm_module):
        # Not a crash to charge to whichever point comes first: nothing
        # could ever be evaluated.
        backend = ProcessPoolBackend({"k": _context(gemm_module)},
                                     SweepConfig())
        backend._payload = b"not the pickled contexts"
        try:
            with pytest.raises(EvaluationFailure, match="failed to start"):
                backend.warm_up()
        finally:
            backend.close()

    def test_a_worker_that_died_idle_charges_nothing(self, gemm_module):
        # max_retries=0: a single charged crash would quarantine the point.
        context = _context(gemm_module)
        backend = ProcessPoolBackend({"k": context}, SweepConfig(
            supervision=fast_policy(max_retries=0)))
        first, second = _sample_batch(context, 2)
        with obs.session() as session:
            try:
                records = backend.evaluate("k", [first])
                (link,) = backend._links
                link._process.kill()  # e.g. the OOM killer, between tasks
                link._process.join(30.0)
                records += backend.evaluate("k", [second])
            finally:
                backend.close()
        assert records == [evaluate_encoded(context, first),
                           evaluate_encoded(context, second)]
        counters = session.metrics.counters
        assert "dse.faults.crashes" not in counters
        assert counters["dse.pool.respawns"] == 1

    def test_crash_never_reaches_a_bystander_kernel(self, gemm_module,
                                                    tmp_path):
        # Two kernels share one pool; only ``a`` crashes its workers.  The
        # link that lost its worker knows it held a task of ``a``: nothing
        # of ``b`` is charged, requeued or delayed behind a probe.
        plan = FaultPlan(mode="crash", select=1, times=1,
                         state_dir=str(tmp_path / "ledger"))
        contexts = {"a": _context(gemm_module, faults=plan),
                    "b": _context(gemm_module)}
        batches = {"a": _sample_batch(contexts["a"], 3, seed=5),
                   "b": _sample_batch(contexts["b"], 6, seed=6)}
        backend = ProcessPoolBackend(contexts, SweepConfig(
            jobs=2, supervision=fast_policy()))
        records = {}
        with obs.session() as session:
            try:
                backend.warm_up()
                threads = [threading.Thread(
                    target=lambda key=key: records.update(
                        {key: backend.evaluate(key, batches[key])}))
                    for key in batches]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120.0)
            finally:
                backend.close()
        clean = _context(gemm_module)
        for key, batch in batches.items():
            assert records[key] == [evaluate_encoded(clean, encoded)
                                    for encoded in batch]
        counters = session.metrics.counters
        assert counters["dse.faults.crashes"] == len(batches["a"])
        assert counters["dse.faults.retries"] == len(batches["a"])
        assert counters["dse.pool.respawns"] == len(batches["a"])

    def test_a_worker_forked_meanwhile_does_not_hide_a_crash(
            self, gemm_module, monkeypatch):
        # Two links respawning at once, each held just after its fork until
        # the other has forked too (or a second passes): had both pipes been
        # open when either forked, each worker would hold the other's end,
        # and killing one would never read as EOF.
        import multiprocessing

        from repro.dse.runtime import worker

        context = multiprocessing.get_context()
        barrier = threading.Barrier(2)

        class Overlapping:
            Pipe = staticmethod(context.Pipe)

            @staticmethod
            def Process(**kwargs):
                process = context.Process(**kwargs)
                start = process.start

                def start_together():
                    start()
                    try:
                        barrier.wait(1.0)
                    except threading.BrokenBarrierError:
                        pass

                process.start = start_together
                return process

        monkeypatch.setattr(worker.multiprocessing, "get_context",
                            lambda: Overlapping)
        payload = worker._worker_payload({"kernel": _context(gemm_module)})
        links = []
        threads = [threading.Thread(target=lambda: links.append(
            worker._ProcessLink(payload, None))) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        monkeypatch.undo()
        try:
            assert len(links) == 2
            victim = links[0]
            victim._process.kill()
            victim._process.join(5.0)
            assert victim._conn.poll(5.0)
            with pytest.raises(EOFError):
                victim._conn.recv()
        finally:
            for link in links:
                link.close()

    @pytest.mark.parametrize("task_timeout", [None, 30.0])
    @pytest.mark.parametrize("times", [2, 3])
    def test_crash_charging_is_topology_independent(self, gemm_module,
                                                    tmp_path, times,
                                                    task_timeout):
        # Whether a crash is charged is a function of the point: the worker
        # that died held exactly one task, however many were in flight.
        config = dict(num_samples=4, max_iterations=4, batch_size=2, seed=11)
        policy = fast_policy(max_retries=2, task_timeout=task_timeout)
        runs = {}
        for jobs in (1, 2):
            plan = FaultPlan(mode="crash", select=3, times=times,
                             state_dir=str(tmp_path / f"ledger-j{jobs}"))
            runs[jobs] = small_explorer(jobs=jobs, supervision=policy,
                                        faults=plan,
                                        **config).explore(gemm_module)
        assert runs[1].num_quarantined == runs[2].num_quarantined
        assert frontier_signature(runs[1]) == frontier_signature(runs[2])
        if times <= policy.max_retries:
            # The plan's budget fits the retry budget: every victim recovers.
            clean = small_explorer(**config).explore(gemm_module)
            assert runs[1].num_quarantined == 0
            assert frontier_signature(runs[1]) == frontier_signature(clean)
            assert set(runs[1].records) == set(clean.records)
        else:
            assert runs[1].num_quarantined > 0


class _UnkillableProcess:
    pid = 4242

    def kill(self):
        raise OSError("process handle already closed")


class TestKillErrorsSurfaced:
    def test_kill_warns_and_counts(self):
        from repro.dse.runtime.worker import _kill_worker

        with obs.session() as session:
            with pytest.warns(RuntimeWarning,
                              match="failed to kill worker process 4242"):
                _kill_worker(_UnkillableProcess())
        assert session.metrics.counters.get("dse.pool.kill_errors") == 1


class TestHangTimeout:
    def test_hung_worker_killed_and_retried(self, gemm_module, tmp_path):
        plan = FaultPlan(mode="hang", select=1, times=1, hang_seconds=60.0,
                         state_dir=str(tmp_path / "ledger"))
        context = _context(gemm_module)
        backend = create_backend({"k": context}, SweepConfig(
            jobs=2, supervision=fast_policy(task_timeout=1.0), faults=plan))
        assert isinstance(backend, ProcessPoolBackend)
        batch = _sample_batch(context, 2)
        started = time.monotonic()
        with obs.session() as session:
            try:
                records = backend.evaluate("k", batch)
            finally:
                backend.close()
        # Both points hang once (60s each uninterrupted); the timeout must
        # bound the whole recovery far below that.
        assert time.monotonic() - started < 30.0
        clean_context = _context(gemm_module)
        expected = [evaluate_encoded(clean_context, encoded)
                    for encoded in batch]
        assert records == expected
        # A timeout kills the one worker that hung, never its neighbour.
        counters = session.metrics.counters
        assert counters["dse.faults.timeouts"] == len(batch)
        assert counters["dse.pool.respawns"] == len(batch)

    def test_timeout_exhaustion_quarantines(self, gemm_module, tmp_path):
        # times=3 > max_retries=1: the hang survives every retry, so both
        # points must quarantine with the timeout message.
        plan = FaultPlan(mode="hang", select=1, times=3, hang_seconds=60.0,
                         state_dir=str(tmp_path / "ledger"))
        context = _context(gemm_module)
        backend = create_backend({"k": context}, SweepConfig(
            jobs=2, supervision=fast_policy(task_timeout=0.75, max_retries=1),
            faults=plan))
        batch = _sample_batch(context, 2)
        try:
            records = backend.evaluate("k", batch)
        finally:
            backend.close()
        assert all(not record.ok for record in records)
        assert all("task timeout" in record.error for record in records)


class TestPoisonQuarantine:
    def _poison_run(self, module, jobs, plan, **overrides):
        explorer = small_explorer(jobs=jobs, faults=plan,
                                  supervision=fast_policy(max_retries=1),
                                  **overrides)
        return explorer.explore(module)

    def test_quarantine_deterministic_across_jobs(self, gemm_module, tmp_path):
        plan = FaultPlan(mode="poison", select=2,
                         state_dir=str(tmp_path / "ledger"))
        serial = self._poison_run(gemm_module, 1, plan)
        pooled = self._poison_run(gemm_module, 2, plan)
        assert serial.num_quarantined > 0
        quarantined = lambda r: [(rec.encoded, rec.status, rec.error)
                                 for rec in r.quarantined_records()]
        assert quarantined(serial) == quarantined(pooled)
        assert frontier_signature(serial) == frontier_signature(pooled)
        assert set(serial.records) == set(pooled.records)
        # No quarantined point ever enters the frontier.
        frontier_keys = {p.encoded for p in serial.frontier}
        assert frontier_keys.isdisjoint(
            rec.encoded for rec in serial.quarantined_records())

    def test_quarantine_survives_resume(self, gemm_module, tmp_path):
        plan = FaultPlan(mode="poison", select=2,
                         state_dir=str(tmp_path / "ledger"))
        full = self._poison_run(gemm_module, 1, plan)
        assert full.num_quarantined > 0

        # Interrupt the same trajectory early via the evaluation budget
        # (which is not part of the checkpointed config), then resume.
        checkpoint = str(tmp_path / "dse.ckpt.json")
        partial = self._poison_run(gemm_module, 1, plan,
                                   checkpoint_path=checkpoint,
                                   checkpoint_every=1, max_evaluations=6)
        assert partial.iterations_done < full.iterations_done
        resumed = small_explorer(
            jobs=1, faults=plan, supervision=fast_policy(max_retries=1),
            checkpoint_path=checkpoint).explore(gemm_module, resume=True)
        assert frontier_signature(resumed) == frontier_signature(full)
        assert [rec.encoded for rec in resumed.quarantined_records()] \
            == [rec.encoded for rec in full.quarantined_records()]

    def test_on_fault_fail_aborts(self, gemm_module, tmp_path):
        plan = FaultPlan(mode="poison", select=1,
                         state_dir=str(tmp_path / "ledger"))
        explorer = small_explorer(
            faults=plan, supervision=fast_policy(max_retries=0,
                                                 on_fault="fail"))
        with pytest.raises(EvaluationFailure, match=r"kernel .* point .*"):
            explorer.explore(gemm_module)


# -- crash-consistent persistence -----------------------------------------------------------


class TestTornLineRecovery:
    def _seed_cache(self, gemm_module, path):
        space = KernelDesignSpace.from_function(gemm_module.functions()[0])
        encoded = tuple(0 for _ in range(space.num_dimensions))
        design = apply_design_point(gemm_module, space.decode(encoded), XC7Z020)
        record = EvaluationRecord.from_design(encoded, design)
        cache = EstimateCache(path=path)
        cache.put("fp", record)
        cache.close()
        return encoded, record

    def test_torn_trailing_line_dropped_with_warning(self, gemm_module,
                                                     tmp_path):
        path = str(tmp_path / "cache.jsonl")
        encoded, record = self._seed_cache(gemm_module, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "fp", "model')  # cut mid-append
        with pytest.warns(RuntimeWarning, match="truncated trailing line"):
            revived = EstimateCache(path=path)
        assert revived.stats.recovered_lines == 1
        assert revived.stats.loaded == 1
        assert revived.get("fp", encoded) == record
        revived.close()
        # Load-time compaction rewrote the file: the next load is clean.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean = EstimateCache(path=path)
        assert clean.stats.recovered_lines == 0
        assert clean.stats.loaded == 1
        clean.close()

    def test_corrupt_middle_line_is_not_a_torn_write(self, gemm_module,
                                                     tmp_path):
        # A corrupt line *before* the end cannot come from a torn append;
        # it is compacted away silently (no recovery warning).
        path = str(tmp_path / "cache.jsonl")
        encoded, record = self._seed_cache(gemm_module, path)
        with open(path, "r", encoding="utf-8") as handle:
            good = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"garbage\n' + good)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            revived = EstimateCache(path=path)
        assert revived.stats.recovered_lines == 0
        assert revived.stats.compacted == 1
        assert revived.get("fp", encoded) == record
        revived.close()

    def test_json_that_is_not_an_object_is_dropped(self, tmp_path):
        # Valid JSON, but not a cache line: dropped and compacted like any
        # other foreign line, the valid lines around it kept.
        path = str(tmp_path / "cache.jsonl")
        records = [EvaluationRecord(
            encoded=(index,), point=KernelDesignPoint(False, False, (0,), (1,), 1),
            qor=QoRResult(latency=10 + index, interval=10,
                          resources=ResourceUsage(dsp=index)))
            for index in range(2)]
        lines = [EstimateCache._serialize("fp", record) for record in records]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join([lines[0], "[1, 2]", "5", '"x"', lines[1]])
                         + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            revived = EstimateCache(path=path)
        assert revived.stats.compacted == 3
        assert revived.stats.loaded == 2
        assert [revived.get("fp", (index,)) for index in range(2)] == records
        revived.close()
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "".join(line + "\n" for line in lines)

    def test_compaction_is_durable_before_it_is_published(
            self, gemm_module, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.jsonl")
        self._seed_cache(gemm_module, path)
        with open(path, "r", encoding="utf-8") as handle:
            good = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"garbage\n' + good)
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            events.append("fsync")
            fsync(fd)

        def recording_replace(source, target):
            events.append(("replace", source, target))
            replace(source, target)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        revived = EstimateCache(path=path)
        assert revived.stats.compacted == 1
        revived.close()
        assert events == ["fsync", ("replace", path + ".tmp", path)]


class TestCheckpointRecovery:
    def test_corrupt_checkpoint_warns_and_starts_fresh(self, tmp_path):
        path = str(tmp_path / "dse.ckpt.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"version": 1, "records"')
        with pytest.warns(RuntimeWarning, match="not valid JSON"):
            assert CheckpointStore(path).load() is None

    @pytest.mark.parametrize("payload", ["[1, 2]", "5", '"x"', "null"])
    def test_json_that_is_not_an_object_is_no_checkpoint(self, tmp_path,
                                                         payload):
        path = str(tmp_path / "dse.ckpt.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
        assert CheckpointStore(path).load() is None


# -- graceful interruption ------------------------------------------------------------------


@pytest.fixture
def interrupt_after(monkeypatch):
    """``interrupt_after(n)`` makes the sweep's own inline backend raise
    KeyboardInterrupt on its (n+1)-th batch; it evaluates normally again
    after the ``with`` block."""
    evaluate = SerialBackend.evaluate

    @contextlib.contextmanager
    def interrupting(allowed_calls):
        calls = []

        def interrupted(backend, key, batch):
            calls.append(key)
            if len(calls) > allowed_calls:
                raise KeyboardInterrupt
            return evaluate(backend, key, batch)

        with monkeypatch.context() as patch:
            patch.setattr(SerialBackend, "evaluate", interrupted)
            yield

    return interrupting


class TestInterruptCheckpoint:
    def test_interrupt_saves_boundary_and_resume_completes(
            self, gemm_module, tmp_path, interrupt_after):
        checkpoint = str(tmp_path / "dse.ckpt.json")
        clean = small_explorer().explore(gemm_module)

        explorer = small_explorer(checkpoint_path=checkpoint,
                                  checkpoint_every=1000)
        with interrupt_after(2), pytest.raises(KeyboardInterrupt):
            explorer.explore(gemm_module)
        # Even though the periodic checkpoint interval was never reached,
        # the interrupt must have persisted the last batch boundary.
        assert os.path.exists(checkpoint)

        resumed = small_explorer(checkpoint_path=checkpoint) \
            .explore(gemm_module, resume=True)
        assert frontier_signature(resumed) == frontier_signature(clean)
        assert set(resumed.records) == set(clean.records)

    def test_with_a_persistent_cache(self, gemm_module, tmp_path,
                                     interrupt_after):
        # No boundary is saved: the cache holds every record the interrupted
        # run stored, and rerunning the sweep replays the trajectory from it.
        checkpoint = tmp_path / "dse.ckpt.json"

        def sweep():
            cache = EstimateCache(str(tmp_path / "cache.jsonl"))
            try:
                return small_explorer(checkpoint_path=str(checkpoint),
                                      checkpoint_every=1000, cache=cache) \
                    .explore(gemm_module)
            finally:
                cache.close()

        with interrupt_after(2), pytest.raises(KeyboardInterrupt):
            sweep()
        assert not checkpoint.exists()
        stored = len((tmp_path / "cache.jsonl").read_text().splitlines())
        assert stored > 0
        clean = small_explorer().explore(gemm_module)
        rerun = sweep()
        assert rerun.cache_hits == stored
        assert frontier_signature(rerun) == frontier_signature(clean)
        assert not checkpoint.exists()
        again = sweep()
        assert again.evaluated_this_run == 0
        assert frontier_signature(again) == frontier_signature(clean)


# -- driver surface -------------------------------------------------------------------------


class TestDriverFlags:
    def test_dse_accepts_supervision_flags(self):
        args = build_parser().parse_args(
            ["dse", "--kernel", "gemm", "--task-timeout", "5",
             "--max-retries", "3", "--on-fault", "fail"])
        assert args.task_timeout == 5.0
        assert args.max_retries == 3
        assert args.on_fault == "fail"
        assert args.inject_faults is None

    def test_dnn_accepts_supervision_flags(self):
        args = build_parser().parse_args(
            ["dnn", "mobilenet", "--dse", "--on-fault", "quarantine",
             "--inject-faults", "flaky"])
        assert args.on_fault == "quarantine"
        assert args.inject_faults == "flaky"

    def test_on_fault_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["dse", "--kernel", "gemm", "--on-fault", "explode"])

    def test_bad_inject_spec_rejected(self):
        with pytest.raises(SystemExit, match="--inject-faults"):
            main(["dse", "--kernel", "gemm", "--size", "8", "--samples", "2",
                  "--iterations", "1", "--inject-faults", "segfault"])

    def test_chaos_run_matches_fault_free(self, tmp_path, capsys):
        base = ["dse", "--kernel", "gemm", "--size", "8", "--samples", "4",
                "--iterations", "4", "--seed", "3"]
        assert main(base) == 0
        clean = capsys.readouterr().out
        assert main(base + [
            "--inject-faults",
            f"flaky:select=2,times=1,state_dir={tmp_path / 'ledger'}",
            "--max-retries", "3"]) == 0
        chaos = capsys.readouterr().out
        # Identical frontier and finalization; only wall-clock-dependent
        # lines and the fault accounting itself may differ.
        volatile = ("evaluated", "evaluations/sec", "utilization",
                    "prefix snapshots", "faults:")
        strip = lambda text: [line for line in text.splitlines()
                              if not any(m in line for m in volatile)]
        assert strip(chaos) == strip(clean)

    def test_poison_run_reports_quarantine(self, tmp_path, capsys):
        assert main(["dse", "--kernel", "gemm", "--size", "8",
                     "--samples", "4", "--iterations", "2", "--seed", "3",
                     "--max-retries", "0", "--inject-faults",
                     f"poison:select=2,state_dir={tmp_path / 'ledger'}"]) == 0
        output = capsys.readouterr().out
        assert "quarantined" in output
        assert "excluded from the frontier" in output


class TestKillAndResume:
    def test_sigkill_then_resume_matches_clean(self, tmp_path, capsys):
        checkpoint = tmp_path / "dse.ckpt.json"
        base = ["dse", "--kernel", "gemm", "--size", "16", "--samples", "6",
                "--iterations", "8", "--batch-size", "2", "--seed", "9"]
        src_root = os.path.dirname(os.path.abspath(
            next(iter(repro.__path__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.driver"] + base
            + ["--checkpoint", str(checkpoint), "--checkpoint-every", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Hard-kill the sweep as soon as the first checkpoint lands (or
            # accept a fast run that finished: its final checkpoint resumes
            # to the same result).
            deadline = time.monotonic() + 120.0
            while (time.monotonic() < deadline and not checkpoint.exists()
                   and proc.poll() is None):
                time.sleep(0.02)
            assert checkpoint.exists(), \
                "driver exited without writing a checkpoint"
        finally:
            proc.kill()
            proc.wait()

        assert main(base + ["--checkpoint", str(checkpoint), "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert main(base) == 0
        clean = capsys.readouterr().out
        # "snapshots" also filters the frontier convergence-series line: the
        # resumed process only records series points for its own share of
        # the trajectory, so the snapshot *count* depends on where the kill
        # landed (the frontier itself does not).
        volatile = ("evaluated", "evaluations/sec", "utilization",
                    "snapshots")
        strip = lambda text: [line for line in text.splitlines()
                              if not any(m in line for m in volatile)]
        assert strip(resumed) == strip(clean)


class TestDnnInterruptCheckpoint:
    """Ctrl-C on a ``dnn --dse`` sweep must persist the last batch boundary
    per node and resume to a byte-identical model frontier."""

    def test_sigint_checkpoints_batch_boundary_and_resumes(self, tmp_path):
        checkpoint = tmp_path / "ckpt"
        base = ["dnn", "mobilenet", "--dse", "--samples", "8",
                "--iterations", "16", "--batch-size", "2", "--seed", "7"]
        src_root = os.path.dirname(os.path.abspath(
            next(iter(repro.__path__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.driver"] + base
            + ["--checkpoint", str(checkpoint), "--checkpoint-every", "1",
               "--frontier-out", str(tmp_path / "partial.json")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Ctrl-C the sweep as soon as the first node checkpoint lands.
            deadline = time.monotonic() + 120.0
            while (time.monotonic() < deadline and proc.poll() is None
                   and not (checkpoint.is_dir()
                            and any(checkpoint.iterdir()))):
                time.sleep(0.02)
            assert checkpoint.is_dir() and any(checkpoint.iterdir()), \
                "driver exited without writing a node checkpoint"
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            status = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # 130 is the graceful-interrupt exit; 0 means the sweep won the race
        # and finished — its final checkpoints resume to the same result.
        assert status in (0, 130)

        resumed_out = tmp_path / "resumed.json"
        assert main(base + ["--checkpoint", str(checkpoint), "--resume",
                            "--frontier-out", str(resumed_out)]) == 0
        clean_out = tmp_path / "clean.json"
        assert main(base + ["--frontier-out", str(clean_out)]) == 0
        assert resumed_out.read_bytes() == clean_out.read_bytes()

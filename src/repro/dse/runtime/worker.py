"""Evaluation backends: where design points actually get estimated.

The coordinator (``ParallelExplorer`` / ``MultiKernelScheduler``) decides
*which* points to evaluate; a backend decides *where*:

* :class:`SerialBackend` evaluates inline in the coordinator process.
* :class:`ProcessPoolBackend` fans evaluations out over a
  ``concurrent.futures.ProcessPoolExecutor``.  Each worker process receives
  the pickled kernel contexts once (in its initializer) and then exchanges
  only ``(kernel key, encoded point)`` tuples and slim
  :class:`~repro.dse.runtime.records.EvaluationRecord` results.
* :class:`~repro.dse.runtime.transport.RemotePoolBackend` dispatches the
  same tasks to socket-connected worker agents.

All backends compute identical records for identical inputs — evaluation
is a pure function of ``(module, design point, platform)`` — which is the
bedrock of the runtime's determinism guarantee.

Supervision
-----------

All backends are *supervised* (see
:class:`~repro.dse.runtime.faults.SupervisionPolicy`): an evaluation that
raises, crashes its worker process, or exceeds the per-task wall-clock
timeout is charged one fault and retried with deterministic backoff; a
point that exhausts its retries is **quarantined** — it becomes a failed
:class:`EvaluationRecord` that counts as visited but never enters a
frontier.  Because fault *outcomes* attach to design points (never to
workers, wall-clock or completion order), a faulty run converges to the
same records as a fault-free one at any ``--jobs``.

That fault model is written once, in :class:`_Settlement`; a backend only
*dispatches* attempts, which is where the three really differ.

Two dispatch details of the process pool are deliberately coarse:

* A worker crash under ``jobs > 1`` breaks the whole pool, so the culprit
  cannot be attributed from a multi-task wave.  The backend requeues every
  broken task *uncharged* and switches to serial probe waves (one task at a
  time), where a pool break is definitive.  A crash can therefore charge an
  innocent task only never — misattribution is structurally impossible; it
  merely costs requeue round-trips.
* A timeout kills *all* worker processes (a hung worker cannot be
  terminated individually through the executor API) and respawns the pool;
  concurrently running tasks of other kernels are requeued uncharged via
  the same broken-pool path.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import pickle
import threading
import time
import warnings
from typing import Optional, Sequence

from repro import obs
from repro.dse.apply import apply_design_point
from repro.dse.incremental import PrefixSnapshotCache
from repro.dse.runtime.config import SweepConfig
from repro.dse.runtime.faults import (
    EvaluationFailure,
    FaultPlan,
    SupervisionPolicy,
)
from repro.dse.runtime.records import EvaluationRecord
from repro.dse.space import KernelDesignSpace
from repro.estimation.platform import Platform
from repro.ir.module import ModuleOp


@dataclasses.dataclass
class KernelContext:
    """Everything a worker needs to evaluate points of one kernel.

    ``pipeline`` is the canonical transform-pipeline signature the
    coordinator evaluated under (see
    :func:`repro.dse.apply.kernel_pipeline_signature`).  It ships to workers
    as data — a picklable spec instead of ad-hoc transform imports — and the
    worker refuses to evaluate when its own registry would run a different
    pipeline (version-skew guard between coordinator and workers).  The
    signature covers every *named* cleanup pipeline a design point may
    select, so the guard holds even though each point builds its own
    cleanup tail (see :data:`repro.dse.apply.CLEANUP_PIPELINES`).

    ``faults`` is an optional injected-fault schedule
    (:class:`~repro.dse.runtime.faults.FaultPlan`) for tests and CI chaos
    runs; None (the default, and the only production setting) evaluates
    normally.  :func:`create_backend` fills it in from the sweep's
    :class:`~repro.dse.runtime.config.SweepConfig`.
    """

    module: ModuleOp
    func_name: Optional[str]
    platform: Platform
    space: KernelDesignSpace
    pipeline: str = ""
    faults: Optional[FaultPlan] = None


def evaluate_encoded(context: KernelContext, encoded: tuple[int, ...],
                     snapshots: Optional[PrefixSnapshotCache] = None,
                     fault_key: str = "") -> EvaluationRecord:
    """Evaluate one encoded design point against its kernel context.

    ``snapshots`` is the caller's prefix-snapshot cache (see
    :mod:`repro.dse.incremental`); None evaluates from scratch.
    ``fault_key`` is the kernel key the backends thread through for
    fault-injection victim selection (irrelevant when ``context.faults``
    is None).

    One transform run answers every target II (see
    :meth:`~repro.dse.space.KernelDesignSpace.ii_siblings`): the returned
    record carries, as ``siblings``, the record of every other target II of
    the space, each equal to what evaluating that encoding itself returns.
    """
    if context.pipeline:
        from repro.dse.apply import kernel_pipeline_signature
        from repro.ir.pass_manager import PassError

        local = kernel_pipeline_signature()
        if local != context.pipeline:
            raise PassError(
                f"worker pipeline mismatch: coordinator evaluated under "
                f"'{context.pipeline}' but this worker would run '{local}'")
    if context.faults is not None:
        context.faults.apply(fault_key, tuple(encoded))
    point = context.space.decode(encoded)
    # Multi-platform sweeps carry the target platform inside the point; the
    # record then pins the exact hardware model it was estimated under.
    platform_hash = ""
    platform = context.platform
    if point.platform:
        platform = context.space.platform_named(point.platform)
        platform_hash = platform.config_hash()
    design = apply_design_point(context.module, point, platform,
                                func_name=context.func_name,
                                snapshots=snapshots,
                                digest=context.space.ir_digest or None,
                                sibling_iis=context.space.ii_options)
    siblings = tuple(
        EvaluationRecord(encoded=other,
                         point=dataclasses.replace(point, target_ii=ii),
                         qor=design.siblings[ii][0],
                         achieved_ii=design.siblings[ii][1],
                         platform_hash=platform_hash)
        for other, ii in context.space.ii_siblings(encoded))
    return EvaluationRecord.from_design(encoded, design,
                                        platform_hash=platform_hash,
                                        siblings=siblings)


def _describe_error(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


# -- worker process side -------------------------------------------------------------------

#: Per-process kernel contexts, installed by :func:`_init_worker`.
_WORKER_CONTEXTS: dict[str, KernelContext] = {}

#: Per-process prefix-snapshot caches, one per kernel key (reset alongside
#: the contexts: snapshots derive from the shipped modules).
_WORKER_SNAPSHOTS: dict[str, PrefixSnapshotCache] = \
    collections.defaultdict(PrefixSnapshotCache)

#: Outcome tags of the guarded worker tasks.  ``fatal`` marks failures that
#: no retry can fix (e.g. a coordinator/worker pipeline mismatch): the
#: supervisor aborts the run instead of burning its retry budget.
_OK, _ERROR, _FATAL = "ok", "error", "fatal"


def _init_worker(payload: bytes) -> None:
    global _WORKER_CONTEXTS, _WORKER_SNAPSHOTS
    contexts, pipelines = pickle.loads(payload)
    # Adopt the coordinator's named-pipeline registry before anything
    # computes a pipeline signature: runtime-registered pipelines
    # (--register-pipeline) must exist on the worker too.
    from repro.dse.apply import install_cleanup_pipelines

    install_cleanup_pipelines(pipelines)
    _WORKER_CONTEXTS = contexts
    _WORKER_SNAPSHOTS = collections.defaultdict(PrefixSnapshotCache)


def _classify(error: BaseException) -> str:
    from repro.ir.pass_manager import PassError

    return _FATAL if isinstance(error, PassError) else _ERROR


def _guarded_evaluation(context: KernelContext, key: str,
                        encoded: tuple[int, ...],
                        snapshots: PrefixSnapshotCache, traced: bool):
    """One evaluation attempt that never raises: ``(tag, payload, telemetry)``.

    A Python-level failure comes back as a tagged ``(_ERROR/_FATAL, message,
    None)`` tuple so the coordinator can attribute it to exactly this
    (kernel, point) even though pool futures lose that context.  Only
    process-level faults (crash, kill, hang) surface as broken futures.
    ``traced`` (the coordinator's own obs session is active) evaluates under
    a throwaway local session and ships its telemetry; that of a failed
    attempt is dropped.
    """
    try:
        if not traced:
            return (_OK, evaluate_encoded(context, encoded, snapshots, key),
                    None)
        record, telemetry = obs.capture_task(
            evaluate_encoded, context, encoded, snapshots, key,
            span_args={"kernel": key})
        return (_OK, record, telemetry)
    except Exception as error:
        return (_classify(error), _describe_error(error), None)


def _evaluate_task(key: str, encoded: tuple[int, ...], traced: bool):
    """The task a worker process or agent runs: a guarded evaluation against
    the contexts and snapshots :func:`_init_worker` installed."""
    return _guarded_evaluation(_WORKER_CONTEXTS[key], key, encoded,
                               _WORKER_SNAPSHOTS[key], traced)


def _warm_up_task(hold_seconds: float) -> None:
    """Warm-up task: occupies one worker long enough that the executor must
    spawn another for the next pending warm-up task."""
    time.sleep(hold_seconds)


# -- backends -------------------------------------------------------------------------------


def _quarantine_record(context: KernelContext, key: str,
                       encoded: tuple[int, ...], error: str,
                       policy: SupervisionPolicy) -> EvaluationRecord:
    """The terminal outcome of an exhausted retry budget.

    Either a first-class quarantined record (cached and checkpointed like a
    healthy one, excluded from every frontier) or — under
    ``--on-fault=fail`` — an :class:`EvaluationFailure` abort carrying the
    kernel and point.
    """
    if policy.on_fault == "fail":
        raise EvaluationFailure(
            f"kernel {key!r} point {tuple(encoded)} failed after "
            f"{policy.max_retries} retries: {error}")
    obs.counter("dse.faults.quarantined")
    return EvaluationRecord.quarantined(tuple(encoded),
                                        context.space.decode(encoded), error)


def _retry_pause(key: str, attempt: int, cause: str,
                 policy: SupervisionPolicy) -> None:
    """Charged-fault bookkeeping: count the retry, back off deterministically."""
    obs.counter("dse.faults.retries")
    with obs.span("dse.retry", kernel=key, attempt=attempt, cause=cause):
        time.sleep(policy.backoff_seconds(attempt))


def _check_stop(stop_event: Optional[threading.Event]) -> None:
    if stop_event is not None and stop_event.is_set():
        raise KeyboardInterrupt


class _Settlement:
    """The fault model of one ``evaluate()`` call, written once.

    A backend dispatches attempts however it can and feeds every outcome it
    can *attribute* to a point to :meth:`settle`, which answers "resubmit?".
    Unattributable outcomes (a pool break in a multi-task wave, a lost
    connection) never get here: requeueing them uncharged is dispatch.
    """

    def __init__(self, key: str, context: KernelContext, total: int,
                 policy: SupervisionPolicy):
        self.key = key
        #: Whether attempts should capture telemetry.
        self.traced = obs.active() is not None
        self._context = context
        self._policy = policy
        self._results: list[Optional[EvaluationRecord]] = [None] * total
        self._telemetry: list = [None] * total
        self._attempts = [0] * total

    def settle(self, index: int, encoded: tuple[int, ...], kind: str,
               payload, telemetry) -> bool:
        """Take in one attempt's outcome; True means "resubmit the point".

        ``ok`` stores the record; ``fatal`` aborts the run; anything else
        (``error``, ``crash``, ``timeout``) is a *charged* fault that
        consumes one retry, and a point with none left is quarantined.
        """
        if kind == _OK:
            self._results[index] = payload
            self._telemetry[index] = telemetry
            return False
        if kind == _FATAL:
            raise EvaluationFailure(
                f"kernel {self.key!r} point {encoded}: {payload}")
        self._attempts[index] += 1
        if kind == "crash":
            obs.counter("dse.faults.crashes")
        elif kind == "timeout":
            obs.counter("dse.faults.timeouts")
        if self._attempts[index] > self._policy.max_retries:
            self._results[index] = _quarantine_record(
                self._context, self.key, encoded, payload, self._policy)
            return False
        _retry_pause(self.key, self._attempts[index], kind, self._policy)
        return True

    def finish(self) -> list[EvaluationRecord]:
        """Absorb telemetry in submission (batch) order, after everything
        settled: the merged trace is deterministic regardless of which
        worker ran what, in what order, or how many retries it took."""
        if self.traced:
            for telemetry in self._telemetry:
                obs.absorb_task(f"worker:{self.key}", telemetry)
        return self._results


class SerialBackend:
    """Inline evaluation (``--jobs 1``): no processes, no pickling.

    Supervision covers Python-level faults only (exceptions raised by the
    evaluation, e.g. injected flaky/poison faults): there is no worker
    process to crash and no way to interrupt a hung inline call, which is
    why :func:`create_backend` promotes to a process pool whenever a task
    timeout or a crash/hang fault plan is configured.
    """

    def __init__(self, contexts: dict[str, KernelContext],
                 config: SweepConfig,
                 stop_event: Optional[threading.Event] = None):
        self._contexts = contexts
        self._snapshots = collections.defaultdict(PrefixSnapshotCache)
        self._config = config
        self._stop_event = stop_event

    def snapshots_for(self, key: str) -> PrefixSnapshotCache:
        """The prefix snapshots kernel ``key`` is evaluated with.
        Coordinator and evaluation share a process here, so the coordinator
        stages program identities against the same cache."""
        return self._snapshots[key]

    def evaluate(self, key: str,
                 batch: Sequence[tuple[int, ...]]) -> list[EvaluationRecord]:
        context = self._contexts[key]
        snapshots = self.snapshots_for(key)
        settlement = _Settlement(key, context, len(batch),
                                 self._config.supervision)
        for index, encoded in enumerate(batch):
            encoded = tuple(encoded)
            resubmit = True
            while resubmit:
                _check_stop(self._stop_event)
                resubmit = settlement.settle(
                    index, encoded,
                    *_guarded_evaluation(context, key, encoded, snapshots,
                                         settlement.traced))
        return settlement.finish()

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class ProcessPoolBackend:
    """Supervised evaluation fanned out across a pool of worker processes.

    The pool is disposable: a worker crash or a task timeout kills and
    respawns it (``_generation`` counts respawns so concurrent coordinator
    threads sharing the backend respawn it at most once per break), and the
    wave loop in :meth:`evaluate` retries or quarantines the affected
    points.  See the module docstring for the attribution rules.
    """

    def __init__(self, contexts: dict[str, KernelContext],
                 config: SweepConfig,
                 stop_event: Optional[threading.Event] = None):
        from repro.dse.apply import CLEANUP_PIPELINES

        self._contexts = contexts
        self._config = config
        self._stop_event = stop_event
        # Ship the named-pipeline registry alongside the contexts so
        # runtime registrations (--register-pipeline) reach every worker.
        self._payload = pickle.dumps((contexts, dict(CLEANUP_PIPELINES)))
        self._lock = threading.Lock()
        self._generation = 0
        self._executor = self._make_executor()

    def _make_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self._config.jobs,
            initializer=_init_worker, initargs=(self._payload,))

    # -- the supervised wave loop -----------------------------------------------------------

    def evaluate(self, key: str,
                 batch: Sequence[tuple[int, ...]]) -> list[EvaluationRecord]:
        settlement = _Settlement(key, self._contexts[key], len(batch),
                                 self._config.supervision)
        pending = collections.deque(
            (index, tuple(encoded)) for index, encoded in enumerate(batch))
        # While > 0, dispatch one task per wave: after a pool break the
        # culprit is unknown, but in a single-task wave a second break is
        # definitively that task's fault.
        probes = 0
        while pending:
            _check_stop(self._stop_event)
            if probes > 0:
                wave = [pending.popleft()]
                probes -= 1
            else:
                width = len(pending)
                if self._config.supervision.task_timeout is not None:
                    # Cap the wave at the worker count so every task starts
                    # immediately: the shared wave deadline then *is* the
                    # per-task deadline.  Without timeouts the whole batch is
                    # submitted at once (better pipelining).
                    width = min(width, self._config.jobs)
                wave = [pending.popleft() for _ in range(width)]
            for index, encoded, kind, payload, telemetry \
                    in self._run_wave(key, wave, settlement.traced):
                if kind == "requeue":
                    # Innocent bystander of a pool break: retry uncharged,
                    # and probe serially to pin down the culprit.
                    pending.append((index, encoded))
                    probes += 1
                elif settlement.settle(index, encoded, kind, payload,
                                       telemetry):
                    pending.append((index, encoded))
        return settlement.finish()

    def _run_wave(self, key: str, wave: list, traced: bool) -> list:
        """Dispatch one wave; classify every task's outcome.

        Returns ``(index, encoded, kind, payload, telemetry)`` tuples where
        ``kind`` is ``ok``/``error``/``fatal`` (from the guarded task),
        ``crash``/``timeout`` (charged process-level faults) or ``requeue``
        (unattributable pool break — uncharged).
        """
        while True:
            _check_stop(self._stop_event)
            generation = self._generation
            try:
                futures = [(index, encoded,
                            self._executor.submit(_evaluate_task, key,
                                                  encoded, traced))
                           for index, encoded in wave]
                break
            except RuntimeError:
                # The executor broke or was shut down between waves (e.g.
                # another kernel's coordinator hit a crash first): swap in
                # a fresh pool and resubmit.
                self._respawn(generation)
        hung: set = set()
        task_timeout = self._config.supervision.task_timeout
        if task_timeout is not None:
            _, not_done = concurrent.futures.wait(
                [future for _, _, future in futures], timeout=task_timeout)
            if not_done:
                # Hung workers cannot be cancelled through the executor API;
                # kill the pool (failing their futures) and respawn.
                hung = set(not_done)
                self._respawn(generation)
        outcomes = []
        broke = False
        for index, encoded, future in futures:
            if future in hung:
                outcomes.append((
                    index, encoded, "timeout",
                    f"evaluation exceeded the task timeout of "
                    f"{task_timeout:g}s", None))
                continue
            try:
                tag, payload, task_telemetry = future.result()
            except concurrent.futures.CancelledError:
                outcomes.append((index, encoded, "requeue", "", None))
                continue
            except (concurrent.futures.BrokenExecutor, RuntimeError) as error:
                broke = True
                if len(wave) == 1:
                    outcomes.append((
                        index, encoded, "crash",
                        f"worker process died evaluating this point "
                        f"({_describe_error(error) or 'killed'})", None))
                else:
                    outcomes.append((index, encoded, "requeue", "", None))
                continue
            outcomes.append((index, encoded, tag, payload, task_telemetry))
        if broke:
            self._respawn(generation)
        return outcomes

    # -- pool lifecycle ---------------------------------------------------------------------

    def _terminate(self, executor) -> None:
        """Kill every worker and discard the executor's queued work."""
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError) as error:
                # A worker that already exited (or a closed process handle)
                # is fine — the pool is being torn down either way — but the
                # failure must not vanish silently: surface it for the logs
                # and count it so chaos runs can assert it never regresses.
                obs.counter("dse.pool.kill_errors")
                warnings.warn(
                    f"failed to kill worker process "
                    f"{getattr(process, 'pid', '?')}: "
                    f"{_describe_error(error)}", RuntimeWarning)
        executor.shutdown(wait=False, cancel_futures=True)

    def _respawn(self, generation: int) -> None:
        """Replace the pool, once: later callers with a stale generation no-op."""
        with self._lock:
            if generation != self._generation:
                return
            self._generation += 1
            self._terminate(self._executor)
            self._executor = self._make_executor()
            obs.counter("dse.pool.respawns")

    def request_stop(self) -> None:
        """Interrupt path: fail in-flight work so coordinators unblock.

        Sets the stop event (checked at every wave boundary) and kills the
        pool — coordinators blocked on futures see a broken pool, requeue,
        and hit the stop check instead of resubmitting.
        """
        if self._stop_event is not None:
            self._stop_event.set()
        with self._lock:
            self._generation += 1
            self._terminate(self._executor)

    def warm_up(self) -> None:
        """Spawn every worker process now.

        The executor otherwise forks lazily on ``submit()`` — and when those
        submits come from coordinator *threads*, they fork a multi-threaded
        process (a deadlock hazard: a child can inherit a lock held by
        another thread).  Call this from the main thread before starting
        coordinator threads.

        Python 3.11+ launches all workers on the first submit for fork
        contexts; on older versions each submit spawns at most one worker,
        so one task per worker is submitted, each holding its worker briefly
        to stop an idle worker from swallowing the next task.
        """
        futures = [self._executor.submit(_warm_up_task, 0.05)
                   for _ in range(self._config.jobs)]
        for future in futures:
            try:
                future.result()
            except (concurrent.futures.BrokenExecutor, RuntimeError) as error:
                raise EvaluationFailure(
                    f"worker pool failed to start ({self._config.jobs} "
                    f"workers): a "
                    f"worker died during warm-up before evaluating anything "
                    f"— check the worker environment/imports "
                    f"({_describe_error(error)})") from error

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def create_backend(contexts: dict[str, KernelContext], config: SweepConfig,
                   stop_event: Optional[threading.Event] = None):
    """Pick the cheapest backend able to provide ``config.jobs`` workers.

    The sweep's fault plan is stamped onto every context here.  A task timeout
    or a crash/hang fault plan forces a process pool even at ``--jobs 1``:
    inline evaluation cannot be killed, and an injected crash would take the
    coordinator down with it.  A ``config.transport`` overrides both local
    backends: evaluation then runs on socket-connected worker agents
    (spawned locally and/or connected remotely).
    """
    contexts = {key: dataclasses.replace(context, faults=config.faults)
                for key, context in contexts.items()}
    if config.transport is not None:
        from repro.dse.runtime.transport import RemotePoolBackend

        return RemotePoolBackend(contexts, config, stop_event)
    needs_isolation = config.supervision.task_timeout is not None or (
        config.faults is not None
        and config.faults.requires_process_isolation)
    if config.jobs <= 1 and not needs_isolation:
        return SerialBackend(contexts, config, stop_event)
    return ProcessPoolBackend(contexts, config, stop_event)

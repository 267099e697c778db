"""Evaluation backends: where design points actually get estimated.

The coordinator (``ParallelExplorer`` / ``MultiKernelScheduler``) decides
*which* points to evaluate; a backend decides *where*:

* :class:`SerialBackend` evaluates inline in the coordinator process.
* :class:`ProcessPoolBackend` fans evaluations out over a
  ``concurrent.futures.ProcessPoolExecutor``.  Each worker process receives
  the pickled kernel contexts once (in its initializer) and then exchanges
  only ``(kernel key, encoded point)`` tuples and slim
  :class:`~repro.dse.runtime.records.EvaluationRecord` results.

Both backends compute identical records for identical inputs — evaluation
is a pure function of ``(module, design point, platform)`` — which is the
bedrock of the runtime's determinism guarantee.

Supervision
-----------

Both backends are *supervised* (see
:class:`~repro.dse.runtime.faults.SupervisionPolicy`): an evaluation that
raises, crashes its worker process, or exceeds the per-task wall-clock
timeout is charged one fault and retried with deterministic backoff; a
point that exhausts its retries is **quarantined** — it becomes a failed
:class:`EvaluationRecord` that counts as visited but never enters a
frontier.  Because fault *outcomes* attach to design points (never to
workers, wall-clock or completion order), a faulty run converges to the
same records as a fault-free one at any ``--jobs``.

Two supervision details are deliberately coarse:

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
import multiprocessing
import pickle
import threading
import time
import warnings
from typing import Optional, Sequence

from repro import obs
from repro.dse.apply import apply_design_point
from repro.dse.incremental import PrefixSnapshotCache
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

    ``incremental`` turns prefix-snapshot caching on (the default) or off
    (``--no-incremental``); both settings produce identical records — the
    flag is pure execution detail, deliberately absent from fingerprints.

    ``faults`` is an optional injected-fault schedule
    (:class:`~repro.dse.runtime.faults.FaultPlan`) for tests and CI chaos
    runs; None (the default, and the only production setting) evaluates
    normally.
    """

    module: ModuleOp
    func_name: Optional[str]
    platform: Platform
    space: KernelDesignSpace
    pipeline: str = ""
    incremental: bool = True
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


def _snapshots_for(context: KernelContext, key: str,
                   caches: dict[str, PrefixSnapshotCache]
                   ) -> Optional[PrefixSnapshotCache]:
    """The per-kernel snapshot cache of ``caches``, or None when disabled."""
    if not context.incremental:
        return None
    cache = caches.get(key)
    if cache is None:
        cache = caches[key] = PrefixSnapshotCache()
    return cache


def _describe_error(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


# -- worker process side -------------------------------------------------------------------

#: Per-process kernel contexts, installed by :func:`_init_worker`.
_WORKER_CONTEXTS: dict[str, KernelContext] = {}

#: Per-process prefix-snapshot caches, one per kernel key (reset alongside
#: the contexts: snapshots derive from the shipped modules).
_WORKER_SNAPSHOTS: dict[str, PrefixSnapshotCache] = {}

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
    _WORKER_SNAPSHOTS = {}


def _classify(error: BaseException) -> str:
    from repro.ir.pass_manager import PassError

    return _FATAL if isinstance(error, PassError) else _ERROR


def _evaluate_task(key: str, encoded: tuple[int, ...]):
    """Guarded evaluation: returns ``(tag, payload, telemetry)``.

    Worker tasks never raise — a Python-level failure comes back as a
    tagged ``(_ERROR/_FATAL, message, None)`` tuple so the coordinator can
    attribute it to exactly this (kernel, point) even though pool futures
    lose that context.  Only process-level faults (crash, kill, hang)
    surface as broken futures.
    """
    context = _WORKER_CONTEXTS[key]
    try:
        record = evaluate_encoded(
            context, encoded,
            snapshots=_snapshots_for(context, key, _WORKER_SNAPSHOTS),
            fault_key=key)
        return (_OK, record, None)
    except Exception as error:
        return (_classify(error), _describe_error(error), None)


def _evaluate_task_traced(key: str, encoded: tuple[int, ...]):
    """Traced variant: evaluate under a local obs session, ship telemetry.

    The coordinator picks this task when its own observability session is
    active; the choice is made coordinator-side so worker initialisation
    needs no tracing flag.  Returns ``(tag, payload, telemetry)`` like
    :func:`_evaluate_task` (telemetry of a failed attempt is dropped —
    :func:`repro.obs.capture_task` restores the outer session on error).
    """
    context = _WORKER_CONTEXTS[key]
    try:
        record, telemetry = obs.capture_task(
            evaluate_encoded, context, encoded,
            _snapshots_for(context, key, _WORKER_SNAPSHOTS), key,
            span_args={"kernel": key})
        return (_OK, record, telemetry)
    except Exception as error:
        return (_classify(error), _describe_error(error), None)


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


class SerialBackend:
    """Inline evaluation (``--jobs 1``): no processes, no pickling.

    Supervision covers Python-level faults only (exceptions raised by the
    evaluation, e.g. injected flaky/poison faults): there is no worker
    process to crash and no way to interrupt a hung inline call, which is
    why :func:`create_backend` promotes to a process pool whenever a task
    timeout or a crash/hang fault plan is configured.
    """

    jobs = 1

    def __init__(self, contexts: dict[str, KernelContext],
                 supervision: Optional[SupervisionPolicy] = None,
                 stop_event: Optional[threading.Event] = None):
        self._contexts = contexts
        self._snapshots: dict[str, PrefixSnapshotCache] = {}
        self._supervision = supervision or SupervisionPolicy()
        self._stop_event = stop_event

    def snapshots_for(self, key: str) -> Optional[PrefixSnapshotCache]:
        """The prefix snapshots kernel ``key`` is evaluated with (None when
        disabled).  Coordinator and evaluation share a process here, so the
        coordinator stages program identities against the same cache."""
        return _snapshots_for(self._contexts[key], key, self._snapshots)

    def evaluate(self, key: str,
                 batch: Sequence[tuple[int, ...]]) -> list[EvaluationRecord]:
        context = self._contexts[key]
        snapshots = self.snapshots_for(key)
        traced = obs.active() is not None
        return [self._evaluate_one(key, context, tuple(encoded), snapshots,
                                   traced)
                for encoded in batch]

    def _evaluate_one(self, key: str, context: KernelContext,
                      encoded: tuple[int, ...], snapshots, traced: bool
                      ) -> EvaluationRecord:
        from repro.ir.pass_manager import PassError

        policy = self._supervision
        attempts = 0
        while True:
            _check_stop(self._stop_event)
            try:
                if not traced:
                    return evaluate_encoded(context, encoded, snapshots, key)
                # Traced path: capture the evaluation into a throwaway local
                # session (exactly like a worker process would) and absorb it
                # immediately — the serial timeline is already submission
                # order.
                record, telemetry = obs.capture_task(
                    evaluate_encoded, context, encoded, snapshots, key,
                    span_args={"kernel": key})
                obs.absorb_task(f"worker:{key}", telemetry)
                return record
            except (KeyboardInterrupt, EvaluationFailure):
                raise
            except PassError as error:
                raise EvaluationFailure(
                    f"kernel {key!r} point {tuple(encoded)}: "
                    f"{_describe_error(error)}") from error
            except Exception as error:
                attempts += 1
                if attempts > policy.max_retries:
                    return _quarantine_record(context, key, encoded,
                                              _describe_error(error), policy)
                _retry_pause(key, attempts, _ERROR, policy)

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

    def __init__(self, contexts: dict[str, KernelContext], jobs: int,
                 mp_context: Optional[str] = None,
                 supervision: Optional[SupervisionPolicy] = None,
                 stop_event: Optional[threading.Event] = None):
        from repro.dse.apply import CLEANUP_PIPELINES

        self.jobs = max(1, int(jobs))
        self._contexts = contexts
        self._supervision = supervision or SupervisionPolicy()
        self._stop_event = stop_event
        # Ship the named-pipeline registry alongside the contexts so
        # runtime registrations (--register-pipeline) reach every worker.
        self._payload = pickle.dumps((contexts, dict(CLEANUP_PIPELINES)))
        self._mp_context = multiprocessing.get_context(mp_context) \
            if mp_context else multiprocessing.get_context()
        self._lock = threading.Lock()
        self._generation = 0
        self._executor = self._make_executor()

    def _make_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=self._mp_context,
            initializer=_init_worker, initargs=(self._payload,))

    # -- the supervised wave loop -----------------------------------------------------------

    def evaluate(self, key: str,
                 batch: Sequence[tuple[int, ...]]) -> list[EvaluationRecord]:
        traced = obs.active() is not None
        policy = self._supervision
        total = len(batch)
        results: list[Optional[EvaluationRecord]] = [None] * total
        telemetry: list = [None] * total
        attempts = [0] * total
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
                if policy.task_timeout is not None:
                    # Cap the wave at the worker count so every task starts
                    # immediately: the shared wave deadline then *is* the
                    # per-task deadline.  Without timeouts the whole batch is
                    # submitted at once (better pipelining).
                    width = min(width, self.jobs)
                wave = [pending.popleft() for _ in range(width)]
            for index, encoded, kind, payload, task_telemetry \
                    in self._run_wave(key, wave, traced):
                if kind == _OK:
                    results[index] = payload
                    telemetry[index] = task_telemetry
                elif kind == _FATAL:
                    raise EvaluationFailure(
                        f"kernel {key!r} point {encoded}: {payload}")
                elif kind == "requeue":
                    # Innocent bystander of a pool break: retry uncharged,
                    # and probe serially to pin down the culprit.
                    pending.append((index, encoded))
                    probes += 1
                else:  # charged fault: error / crash / timeout
                    attempts[index] += 1
                    if kind == "crash":
                        obs.counter("dse.faults.crashes")
                    elif kind == "timeout":
                        obs.counter("dse.faults.timeouts")
                    if attempts[index] > policy.max_retries:
                        results[index] = _quarantine_record(
                            self._contexts[key], key, encoded, payload,
                            policy)
                    else:
                        _retry_pause(key, attempts[index], kind, policy)
                        pending.append((index, encoded))
        if traced:
            # Absorb in submission (batch) order, after every wave settled:
            # the merged trace is deterministic regardless of which worker
            # ran what, in what order, or how many retries it took.
            for index in range(total):
                obs.absorb_task(f"worker:{key}", telemetry[index])
        return results

    def _run_wave(self, key: str, wave: list, traced: bool) -> list:
        """Dispatch one wave; classify every task's outcome.

        Returns ``(index, encoded, kind, payload, telemetry)`` tuples where
        ``kind`` is ``ok``/``error``/``fatal`` (from the guarded task),
        ``crash``/``timeout`` (charged process-level faults) or ``requeue``
        (unattributable pool break — uncharged).
        """
        task = _evaluate_task_traced if traced else _evaluate_task
        while True:
            _check_stop(self._stop_event)
            generation = self._generation
            try:
                futures = [(index, encoded,
                            self._executor.submit(task, key, encoded))
                           for index, encoded in wave]
                break
            except RuntimeError:
                # The executor broke or was shut down between waves (e.g.
                # another kernel's coordinator hit a crash first): swap in
                # a fresh pool and resubmit.
                self._respawn(generation)
        hung: set = set()
        if self._supervision.task_timeout is not None:
            _, not_done = concurrent.futures.wait(
                [future for _, _, future in futures],
                timeout=self._supervision.task_timeout)
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
                    f"{self._supervision.task_timeout:g}s", None))
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
                   for _ in range(self.jobs)]
        for future in futures:
            try:
                future.result()
            except (concurrent.futures.BrokenExecutor, RuntimeError) as error:
                raise EvaluationFailure(
                    f"worker pool failed to start ({self.jobs} workers): a "
                    f"worker died during warm-up before evaluating anything "
                    f"— check the worker environment/imports "
                    f"({_describe_error(error)})") from error

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def create_backend(contexts: dict[str, KernelContext], jobs: int,
                   mp_context: Optional[str] = None,
                   supervision: Optional[SupervisionPolicy] = None,
                   stop_event: Optional[threading.Event] = None,
                   transport=None):
    """Pick the cheapest backend able to provide ``jobs`` parallel workers.

    A task timeout or a crash/hang fault plan forces a process pool even at
    ``--jobs 1``: inline evaluation cannot be killed, and an injected crash
    would take the coordinator down with it.  A ``transport``
    (:class:`~repro.dse.runtime.transport.TransportConfig`) overrides both
    local backends: evaluation then runs on socket-connected worker agents
    (spawned locally and/or connected remotely).
    """
    supervision = supervision or SupervisionPolicy()
    if transport is not None:
        from repro.dse.runtime.transport import RemotePoolBackend

        return RemotePoolBackend(contexts, transport, supervision=supervision,
                                 stop_event=stop_event)
    needs_isolation = supervision.task_timeout is not None or any(
        context.faults is not None and context.faults.requires_process_isolation
        for context in contexts.values())
    if jobs <= 1 and not needs_isolation:
        return SerialBackend(contexts, supervision=supervision,
                             stop_event=stop_event)
    return ProcessPoolBackend(contexts, jobs, mp_context=mp_context,
                              supervision=supervision, stop_event=stop_event)

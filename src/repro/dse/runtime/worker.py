"""Evaluation backends: where design points actually get estimated.

The coordinator (``ParallelExplorer`` / ``MultiKernelScheduler``) decides
*which* points to evaluate; a backend decides *where*:

* :class:`SerialBackend` evaluates inline in the coordinator process.
* :class:`ProcessPoolBackend` fans evaluations out over local worker
  processes, one ``multiprocessing.Process`` and one pipe each.

Both backends compute identical records for identical inputs — evaluation
is a pure function of ``(module, design point, platform)`` — which is the
bedrock of the runtime's determinism guarantee.  Both reach
:func:`evaluate_encoded`, which is an arena: the transformed IR is built,
estimated and dropped inside the call, so the call pauses CPython's cyclic
collector and runs one young collection when it is over
(:class:`_EvaluationArena`); only the record leaves.

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

There is one dispatch loop, :class:`Supervisor`, and one fault model,
:class:`_Settlement`.  The backends differ only in the *link*: how one task
reaches one worker, and what losing that worker means.  Inline, there is no
worker to lose.  A :class:`_ProcessLink` knows which task its worker holds,
so a dead worker is a *charged* ``crash`` of exactly that task and a blown
deadline kills exactly that worker; other workers, and other kernels
sharing the pool, never notice.  Whether a fault is charged is thus a
function of the point alone, not of how many tasks were in flight or how
many workers ran them.  A link that cannot even attempt (its worker would
not respawn) reports ``fatal`` and the run aborts.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import multiprocessing
import pickle
import queue
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


class _EvaluationArena:
    """Pauses CPython's cyclic collector while evaluations are in flight.

    An evaluation builds tens of thousands of IR objects and drops them all
    when it returns its record.  Left on, the collector traverses them about
    three times on their way through the generations, to find nothing: the
    IR is live until the end, then dies together.  Entering turns the
    collector off; leaving, with the transformed module gone, runs *one*
    young collection, which frees the evaluation's cycles (an operation and
    its results, a block and its operations) and promotes only what the
    caller kept.  Reference counting is untouched, so nothing but cycles
    waits, and only until the evaluation ends.

    Re-entrant and shared by threads: a depth counter under a lock, the
    outermost entry pauses and the last exit collects and resumes — cycles
    of evaluations that overlap on threads wait for the last one.  A caller
    that already runs with the collector off is left alone (no collection,
    no ``gc.enable()``).  The collector's state is restored on any
    exception; thresholds and ``gc.freeze`` are never touched.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        #: Whether the outermost entry found the collector on.
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.collect(0)
                gc.enable()


#: The collector is the process's, so its pause is too.
_ARENA = _EvaluationArena()


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

    The call is an arena (:class:`_EvaluationArena`): the transformed module
    never leaves it, so the cyclic collector is paused for its length and
    runs at most once, when it returns or raises.
    """
    with _ARENA:
        # A frame of its own: the module is unreachable by the time the
        # arena collects.
        return _evaluate(context, encoded, snapshots, fault_key)


def _evaluate(context: KernelContext, encoded: tuple[int, ...],
              snapshots: Optional[PrefixSnapshotCache],
              fault_key: str) -> EvaluationRecord:
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

#: Outcomes only a link can report — it lost the worker that held the task.
#: Both are charged to the point.
_CRASH, _TIMEOUT = "crash", "timeout"

#: Bound on waiting for a worker or slot that should already be finished.
_REAP_SECONDS = 5.0


def _worker_payload(contexts: dict[str, KernelContext]) -> bytes:
    """What :func:`_init_worker` installs: the contexts plus the named
    pipelines, so runtime registrations (--register-pipeline) ship too."""
    from repro.dse.apply import CLEANUP_PIPELINES

    return pickle.dumps((contexts, dict(CLEANUP_PIPELINES)))


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
    None)`` tuple; process-level faults (crash, kill, hang) are the link's
    to report.
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


def _worker_main(conn, payload: bytes) -> None:
    """A pool worker process: install the contexts, say hello, then answer
    one task at a time — a guarded evaluation against the contexts and
    snapshots :func:`_init_worker` installed — until told to stop (``None``)
    or orphaned."""
    try:
        _init_worker(payload)
        conn.send(None)
        while (task := conn.recv()) is not None:
            key, encoded, traced = task
            conn.send(_guarded_evaluation(_WORKER_CONTEXTS[key], key, encoded,
                                          _WORKER_SNAPSHOTS[key], traced))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass  # the coordinator is gone or interrupted: exit quietly


# -- the fault model ------------------------------------------------------------------------


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

    The supervisor feeds every outcome a link reports to :meth:`settle`,
    which answers "resubmit?".  A link knows which task its worker held, so
    every outcome is attributed to exactly one point.
    """

    def __init__(self, key: str, context: KernelContext, total: int,
                 policy: SupervisionPolicy):
        self.key = key
        #: Whether attempts should capture telemetry.
        self.traced = obs.active() is not None
        self._context = context
        self._policy = policy
        #: Where slots report ``(index, encoded, kind, payload, telemetry)``.
        self.done: queue.SimpleQueue = queue.SimpleQueue()
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
        if kind == _CRASH:
            obs.counter("dse.faults.crashes")
        elif kind == _TIMEOUT:
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


# -- the supervisor -------------------------------------------------------------------------


class Supervisor:
    """The one dispatch loop of the runtime; both backends extend it.

    A *link* is how one task reaches one worker and what losing that worker
    means: ``run(key, encoded, traced) -> (kind, payload, telemetry)`` is
    one attempt (the worker's own ``ok`` / ``error`` / ``fatal``, or the
    link's charged ``crash`` / ``timeout``), ``alive`` turns False once the
    link can take no more tasks, ``abort()`` fails the attempt in flight
    from any thread and ``close()`` is its slot's goodbye.
    One *slot* thread per link pulls from a FIFO task queue every
    ``evaluate()`` call shares; it blocks there and is woken at shutdown by
    a sentinel of its own, never by a poll.  ``evaluate()`` alone calls
    :meth:`_Settlement.settle`: it submits, resubmits, and settles results
    in submission order.  A backend builds links and owns their lifecycle.
    """

    #: A link run in the caller's thread, in place of slots.
    _inline = None

    def __init__(self, contexts: dict[str, KernelContext],
                 config: SweepConfig,
                 stop_event: Optional[threading.Event] = None):
        self._contexts = contexts
        self._config = config
        self._stop_event = stop_event
        #: ``(settlement, index, encoded)`` tasks; None is a slot's sentinel.
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._links: list = []
        self._threads: list[threading.Thread] = []
        self._closing = False

    def warm_up(self) -> None:
        """Bring every worker up now, from the calling thread."""

    def _ready(self) -> None:
        """Block until a slot can take a task (``evaluate()`` calls it)."""

    def evaluate(self, key: str,
                 batch: Sequence[tuple[int, ...]]) -> list[EvaluationRecord]:
        self._ready()
        settlement = _Settlement(key, self._contexts[key], len(batch),
                                 self._config.supervision)
        inline = self._inline
        pending: collections.deque = collections.deque()
        submit = self._tasks.put if inline is None else pending.append
        for index, encoded in enumerate(batch):
            submit((settlement, index, tuple(encoded)))
        outstanding = len(batch)
        while outstanding:
            _check_stop(self._stop_event)
            if inline is not None:
                _, index, encoded = pending.popleft()
                outcome = inline.run(key, encoded, settlement.traced)
            else:
                try:
                    # Timed only so that a stop request is noticed.
                    index, encoded, *outcome = settlement.done.get(timeout=0.2)
                except queue.Empty:
                    continue
            if settlement.settle(index, encoded, *outcome):
                submit((settlement, index, encoded))
            else:
                outstanding -= 1
        return settlement.finish()

    def _start_slot(self, link) -> None:
        thread = threading.Thread(target=self._serve, args=(link,),
                                  daemon=True)
        self._threads.append(thread)
        thread.start()

    def _serve(self, link) -> None:
        """A slot: feed ``link`` one task at a time until it dies or the
        supervisor shuts down, then say goodbye to it."""
        with self._lock:
            self._links.append(link)
            if self._closing:
                self._tasks.put(None)  # shutdown has counted its sentinels
        try:
            while link.alive:
                task = self._tasks.get()
                if task is None or self._closing:
                    break
                settlement, index, encoded = task
                try:
                    outcome = link.run(settlement.key, encoded,
                                       settlement.traced)
                except Exception as error:
                    # A link that cannot even attempt (say, its worker would
                    # not respawn): abort the run rather than lose the task.
                    settlement.done.put((index, encoded, _FATAL,
                                         _describe_error(error), None))
                    break
                settlement.done.put((index, encoded, *outcome))
        finally:
            with self._lock:
                self._links.remove(link)
            link.close()

    def _shut_slots(self) -> list:
        """Flag the shutdown and wake every slot with a sentinel of its own;
        returns the links that were being served."""
        with self._lock:
            self._closing = True
            links = list(self._links)
        for _ in links:
            self._tasks.put(None)
        return links

    def request_stop(self) -> None:
        """Interrupt path: set the stop event every ``evaluate()`` checks and
        fail in-flight attempts so no slot waits out an evaluation."""
        if self._stop_event is not None:
            self._stop_event.set()
        for link in self._shut_slots():
            link.abort()

    def close(self) -> None:
        self._shut_slots()
        for thread in list(self._threads):
            # Bounded: a slot still mid-attempt after an aborted evaluate()
            # finishes on its own (daemon thread, daemon worker).
            thread.join(_REAP_SECONDS)


# -- links and backends ---------------------------------------------------------------------


class SerialBackend(Supervisor):
    """Inline evaluation (``--jobs 1``): no processes, no pickling; the
    backend is its own link, run in the caller's thread.

    Supervision covers Python-level faults only (e.g. injected flaky/poison
    faults): there is no worker process to crash and no way to interrupt a
    hung inline call, which is why :func:`create_backend` promotes to a
    process pool whenever a task timeout or a crash/hang fault plan is
    configured.
    """

    def __init__(self, contexts: dict[str, KernelContext],
                 config: SweepConfig,
                 stop_event: Optional[threading.Event] = None):
        super().__init__(contexts, config, stop_event)
        self._snapshots = collections.defaultdict(PrefixSnapshotCache)
        self._inline = self

    def run(self, key: str, encoded: tuple[int, ...], traced: bool):
        return _guarded_evaluation(self._contexts[key], key, encoded,
                                   self._snapshots[key], traced)


def _kill_worker(process) -> None:
    try:
        process.kill()
    except (OSError, ValueError) as error:
        # A worker that already exited (or a closed process handle) is fine
        # — it is being discarded either way — but the failure must not
        # vanish silently: surface it for the logs and count it so chaos
        # runs can assert it never regresses.
        obs.counter("dse.pool.kill_errors")
        warnings.warn(
            f"failed to kill worker process {getattr(process, 'pid', '?')}: "
            f"{_describe_error(error)}", RuntimeWarning)


#: Held by a link from creating its worker's pipe to closing the worker's end.
_SPAWN_LOCK = threading.Lock()


class _ProcessLink:
    """One worker process on a pipe.  The link knows which task its worker
    holds, so losing the worker is that task's fault and nobody else's: EOF
    mid-task is a charged ``crash``, a blown deadline kills this worker
    (only) and is a charged ``timeout``.  Either way the link forks its own
    replacement (``dse.pool.respawns``)."""

    def __init__(self, payload: bytes, task_timeout: Optional[float]):
        self._payload = payload
        self._task_timeout = task_timeout
        self.alive = True
        self._spawn()

    def _spawn(self) -> None:
        context = multiprocessing.get_context()
        # Links respawn from their own slot threads.  A worker another link
        # forks while this one's end of the pipe is still open here inherits
        # that end, and this worker's death would then never read as EOF.
        with _SPAWN_LOCK:
            conn, child = context.Pipe()
            process = context.Process(
                target=_worker_main, args=(child, self._payload), daemon=True)
            process.start()
            child.close()  # our copy would hide the worker's death from recv()
        self._conn, self._process = conn, process
        try:
            self._conn.recv()  # the worker's hello: contexts installed
        except (EOFError, OSError) as error:
            raise EvaluationFailure(
                "worker pool failed to start: a worker died before "
                "evaluating anything — check the worker "
                "environment/imports") from error

    def _recycle(self) -> None:
        """Kill and reap the worker; fork its replacement unless the link
        is finished."""
        _kill_worker(self._process)
        self._process.join(_REAP_SECONDS)
        self._conn.close()
        if self.alive:
            self._spawn()
            obs.counter("dse.pool.respawns")

    def run(self, key: str, encoded: tuple[int, ...], traced: bool):
        if self._conn.poll(0):
            # A worker never speaks unasked: it died idle, holding nothing,
            # so nothing is charged.
            self._recycle()
        try:
            self._conn.send((key, encoded, traced))
            if self._conn.poll(self._task_timeout):
                return self._conn.recv()
            outcome = (_TIMEOUT, f"evaluation exceeded the task timeout of "
                                 f"{self._task_timeout:g}s", None)
        except (EOFError, OSError):
            # Reap first: the kill in _recycle must not change the status.
            self._process.join(_REAP_SECONDS)
            outcome = (_CRASH, f"worker process died evaluating this point "
                               f"(exit code {self._process.exitcode})", None)
        self._recycle()
        return outcome

    def abort(self) -> None:
        self.alive = False
        _kill_worker(self._process)

    def close(self) -> None:
        self.alive = False
        try:
            self._conn.send(None)  # ask the worker to exit
            self._process.join(_REAP_SECONDS)
        except OSError:
            pass  # aborted: already dead
        self._recycle()


class ProcessPoolBackend(Supervisor):
    """Supervised evaluation on ``jobs`` worker processes, a
    :class:`_ProcessLink` each.  A worker receives the kernel contexts once,
    when it starts, and then exchanges only tasks and guarded results."""

    def __init__(self, contexts: dict[str, KernelContext],
                 config: SweepConfig,
                 stop_event: Optional[threading.Event] = None):
        super().__init__(contexts, config, stop_event)
        self._payload = _worker_payload(contexts)

    def warm_up(self) -> None:
        """Fork every worker, then start their slots (idempotent;
        ``evaluate()`` otherwise does it on first use).  Call it from the
        main thread before starting coordinator threads: forking a
        multi-threaded process risks inheriting a lock another thread holds."""
        with self._lock:
            if self._threads:
                return
            links = [_ProcessLink(self._payload,
                                  self._config.supervision.task_timeout)
                     for _ in range(self._config.jobs)]
            for link in links:
                self._start_slot(link)

    _ready = warm_up


def create_backend(contexts: dict[str, KernelContext], config: SweepConfig,
                   stop_event: Optional[threading.Event] = None):
    """Pick the cheapest backend able to provide ``config.jobs`` workers.

    The sweep's fault plan is stamped onto every context here.  A task timeout
    or a crash/hang fault plan forces a process pool even at ``--jobs 1``:
    inline evaluation cannot be killed, and an injected crash would take the
    coordinator down with it.
    """
    contexts = {key: dataclasses.replace(context, faults=config.faults)
                for key, context in contexts.items()}
    needs_isolation = config.supervision.task_timeout is not None or (
        config.faults is not None
        and config.faults.requires_process_isolation)
    if config.jobs <= 1 and not needs_isolation:
        return SerialBackend(contexts, config, stop_event)
    return ProcessPoolBackend(contexts, config, stop_event)

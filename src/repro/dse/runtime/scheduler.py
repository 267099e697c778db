"""Concurrent DSE over many kernels sharing one worker pool.

A DNN compiled through the graph flow (:func:`repro.pipeline.compile_dnn`)
contains one lowered function per dataflow stage; sweeping a whole model
means running DSE for each of them.  :class:`MultiKernelScheduler` does so
under a *shared resource budget*: one worker pool of ``jobs`` processes
serves all kernels, coordinator threads interleave their batches onto it,
and a shared :class:`EstimateCache` deduplicates work across kernels and
runs.

Kernels are grouped by fingerprint (:func:`repro.dse.space.ir_digest` hashes
structure, not names), and each class is explored *representative-first*:
its first task is swept as any kernel is, every later one after it, finding
in the cache the estimates of the trajectory they share.  The repeated
layers of a DNN are thus evaluated once — with or without a persistent
cache — and which of them pays never depends on thread scheduling.

The unit of scheduling is a :class:`KernelTask` — a (module, function,
design space) triple with an optional per-task exploration budget.  The
whole-model scheduler (:mod:`repro.dse.runtime.model`) builds one task per
DNN node, each against its own single-function module: workers still
receive every task's context up front (one initializer payload), but it
holds N single-function modules instead of N copies of the whole model.

Each kernel's trajectory stays fully deterministic — it only depends on the
kernel's own ``(seed, budget)`` stream, never on how the pool interleaved
the evaluations of its neighbors.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import threading
from typing import Optional, Sequence

from repro import obs
from repro.dse.runtime.cache import EstimateCache
from repro.dse.runtime.config import SweepConfig
from repro.dse.runtime.faults import EvaluationFailure
from repro.dse.runtime.parallel import (
    ParallelDSEResult,
    ParallelExplorer,
    _kernel_fingerprint,
)
from repro.dse.runtime.worker import KernelContext, create_backend
from repro.dse.space import KernelDesignSpace
from repro.estimation.platform import Platform, XC7Z020
from repro.ir.module import ModuleOp


@dataclasses.dataclass
class KernelTask:
    """One kernel to explore: where it lives and how much budget it gets.

    ``key`` names the task everywhere: the worker context, the checkpoint
    file (``<key>.ckpt.json``) and the result dictionary.  ``num_samples``
    and ``max_iterations`` override the sweep's budgets when set — the
    per-node budget policy of the whole-model sweep uses them to give light
    dataflow stages proportionally smaller explorations.
    """

    key: str
    module: ModuleOp
    func_name: Optional[str]
    space: KernelDesignSpace
    num_samples: Optional[int] = None
    max_iterations: Optional[int] = None
    #: Hard cap on evaluations processed this run (used to bound partial
    #: sweeps; unlike the budgets above it is not part of the trajectory, so
    #: a capped run checkpoints a resumable prefix of the uncapped one).
    max_evaluations: Optional[int] = None
    #: Filled in by the scheduler, once per sweep, on its own copy of the
    #: task: the kernel's cache/checkpoint identity, and the key of the
    #: earlier task with the same identity (its class's *representative*),
    #: or None when this task is the first of its class.
    fingerprint: str = ""
    shared_with: Optional[str] = None


class MultiKernelScheduler:
    """Runs DSE for many kernels concurrently on one shared worker pool."""

    def __init__(self, platform: Platform = XC7Z020,
                 config: SweepConfig = SweepConfig(), *,
                 checkpoint_dir: Optional[str] = None):
        self.platform = platform
        self.config = config
        self.checkpoint_dir = checkpoint_dir

    # -- public API -------------------------------------------------------------------------

    def explore_module(self, module: ModuleOp,
                       func_names: Optional[Sequence[str]] = None,
                       resume: bool = False) -> dict[str, ParallelDSEResult]:
        """Run DSE for every explorable function of ``module``.

        Functions without an affine loop nest (e.g. a dataflow top that only
        contains calls) are skipped.  Returns per-function results keyed by
        the function's symbol name.
        """
        tasks = self._module_tasks(module, func_names)
        return self.explore_kernels(tasks, resume=resume)

    def explore_kernels(self, tasks: Sequence[KernelTask],
                        resume: bool = False) -> dict[str, ParallelDSEResult]:
        """Run DSE for every :class:`KernelTask` on one shared pool.

        Returns results keyed by ``task.key`` (insertion order preserved).
        """
        tasks = list(tasks)
        if not tasks:
            return {}
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise ValueError(f"kernel task keys must be unique, got {keys}")

        from repro.dse.apply import kernel_pipeline_signature

        signature = kernel_pipeline_signature()
        contexts = {
            task.key: KernelContext(module=task.module, func_name=task.func_name,
                                    platform=self.platform, space=task.space,
                                    pipeline=signature)
            for task in tasks
        }
        # Structurally identical kernels share a fingerprint, hence their
        # estimate-cache keys.  The first task of each class (its
        # representative) pays for the evaluations; every later member runs
        # after it and resolves the trajectory they share from the cache —
        # through the same explorer path, so checkpoints, resume and
        # quarantine need no second code path, and who hits and who misses
        # never depends on a thread race.
        classes: dict[str, list[KernelTask]] = {}
        for index, task in enumerate(tasks):
            fingerprint = self._fingerprint(task)
            members = classes.setdefault(fingerprint, [])
            tasks[index] = task = dataclasses.replace(
                task, fingerprint=fingerprint,
                shared_with=members[0].key if members else None)
            members.append(task)
        config, known_before = self.config, frozenset()
        if len(classes) < len(tasks):
            if config.cache is None:
                # Sharing must not hinge on --cache: the sweep owns a
                # run-local cache, but only when a class repeats (a sweep of
                # distinct kernels runs exactly as it always did).
                config = dataclasses.replace(config, cache=EstimateCache())
            else:
                known_before = config.cache.known_keys()

        stop_event = threading.Event()
        backend = create_backend(contexts, config, stop_event)
        schedule_span = obs.NULL_SPAN if obs.active() is None else obs.span(
            "dse.schedule", kernels=len(tasks), jobs=config.jobs)
        try:
            with schedule_span:
                if config.jobs <= 1 or len(tasks) == 1:
                    # Task order already puts every representative first.
                    return {task.key: self._explore_one(
                                task, config, known_before, backend, resume,
                                stop_event)
                            for task in tasks}
                # Spawn the pool's workers from the main thread, before any
                # coordinator threads exist: forking from a multi-threaded
                # process risks inheriting locks held by other threads.
                # Deliberately unspanned: the warm-up only exists for jobs>1,
                # and the trace skeleton must be identical across --jobs.
                backend.warm_up()
                # One coordinator thread per kernel class; they are
                # I/O-bound (waiting on pool results), so threads are enough
                # to keep the pool busy.
                with concurrent.futures.ThreadPoolExecutor(
                        max_workers=len(classes)) as coordinators:
                    futures = [
                        coordinators.submit(self._explore_class, members,
                                            config, known_before, backend,
                                            resume, stop_event)
                        for members in classes.values()
                    ]
                    try:
                        results = {}
                        for future in futures:
                            results.update(future.result())
                        return {task.key: results[task.key] for task in tasks}
                    except KeyboardInterrupt:
                        # Ctrl-C: stop submissions, fail in-flight attempts
                        # so every coordinator unblocks, writes its boundary
                        # checkpoint and exits; then let the interrupt
                        # propagate (the ThreadPoolExecutor context joins
                        # the unblocked coordinators on the way out).
                        backend.request_stop()
                        for future in futures:
                            future.cancel()
                        raise
        finally:
            backend.close()

    # -- internals --------------------------------------------------------------------------

    def _module_tasks(self, module: ModuleOp,
                      func_names: Optional[Sequence[str]]) -> list[KernelTask]:
        if func_names is None:
            func_names = [func_op.get_attr("sym_name")
                          for func_op in module.functions()]
        tasks: list[KernelTask] = []
        for name in func_names:
            func_op = module.lookup(name)
            if func_op is None:
                raise ValueError(f"function {name!r} not found in the module")
            try:
                space = KernelDesignSpace.from_function(
                    func_op, platforms=self.config.platforms or None)
            except ValueError:
                continue  # no loop nest to explore
            tasks.append(KernelTask(key=name, module=module, func_name=name,
                                    space=space))
        return tasks

    def _fingerprint(self, task: KernelTask) -> str:
        """The task's cache/checkpoint identity, computed once per sweep."""
        module = task.module
        func_op = module.lookup(task.func_name) if task.func_name \
            else module.functions()[0]
        return _kernel_fingerprint(task.space, func_op, self.platform)

    def _explore_class(self, members: Sequence[KernelTask],
                       config: SweepConfig,
                       known_before: frozenset, backend, resume: bool,
                       stop_event: threading.Event
                       ) -> dict[str, ParallelDSEResult]:
        """Explore one fingerprint class, representative first.

        Errors are attributed to the kernel that raised them.
        """
        results = {}
        for task in members:
            try:
                results[task.key] = self._explore_one(
                    task, config, known_before, backend, resume, stop_event)
            except EvaluationFailure:
                raise
            except Exception as error:
                raise EvaluationFailure(
                    f"DSE for kernel {task.key!r} failed: "
                    f"{type(error).__name__}: {error}") from error
        return results

    def _explore_one(self, task: KernelTask, config: SweepConfig,
                     known_before: frozenset, backend, resume: bool,
                     stop_event: Optional[threading.Event] = None
                     ) -> ParallelDSEResult:
        checkpoint_path = None
        if self.checkpoint_dir:
            checkpoint_path = os.path.join(self.checkpoint_dir,
                                           f"{task.key}.ckpt.json")
        budget = {name: value for name in ("num_samples", "max_iterations")
                  if (value := getattr(task, name)) is not None}
        explorer = ParallelExplorer(
            self.platform, dataclasses.replace(config, **budget),
            checkpoint_path=checkpoint_path,
            max_evaluations=task.max_evaluations, stop_event=stop_event)
        return explorer.explore(
            task.module, space=task.space, func_name=task.func_name,
            resume=resume, backend=backend, context_key=task.key,
            fingerprint=task.fingerprint, shared_with=task.shared_with,
            known_before=known_before)

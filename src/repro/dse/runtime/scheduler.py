"""Every DSE sweep, from one kernel to every node of a model.

A DNN compiled through the graph flow (:func:`repro.pipeline.compile_dnn`)
contains one lowered function per dataflow stage; sweeping a whole model
means running DSE for each of them.  :class:`MultiKernelScheduler` does so
under a *shared resource budget*: one worker pool of ``jobs`` processes
serves all kernels, coordinator threads interleave their batches onto it,
and a shared :class:`EstimateCache` deduplicates work across kernels and
runs.  A single kernel (:class:`ParallelExplorer`) is a one-task sweep.

The scheduler is the one owner of what a sweep shares: it creates and
closes the backend, fingerprints every kernel and decides where each
checkpoints.  A kernel's trajectory
(:func:`~repro.dse.runtime.parallel._explore_trajectory`) is handed all of
it.

Kernels are grouped by fingerprint (:func:`repro.dse.space.ir_digest` hashes
structure, not names), and each class is explored *representative-first* on
one coordinator: its first task is swept as any kernel is, and a later task
with the same budget takes a copy of that result (:func:`_copy_of`).  The
repeated layers of a DNN are thus swept once — with or without a persistent
cache — and which of them pays never depends on thread scheduling.

The unit of scheduling is a :class:`KernelTask` — a (module, function,
design space) triple with an optional per-task exploration budget.  The
whole-model scheduler (:mod:`repro.dse.runtime.model`) builds one task per
DNN node, each against its own single-function module: workers receive
the context of every task that sweeps (not of those that take a copy) up
front, in one initializer payload of single-function modules.

Each kernel's trajectory stays fully deterministic — it only depends on the
kernel's own ``(seed, budget)`` stream, never on how the pool interleaved
the evaluations of its neighbors.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import os
import threading
from typing import Optional, Sequence

from repro import obs
from repro.dse.apply import kernel_pipeline_signature
from repro.dse.runtime.config import SweepConfig
from repro.dse.runtime.faults import EvaluationFailure
from repro.dse.runtime.parallel import ParallelDSEResult, _explore_trajectory
from repro.dse.runtime.worker import KernelContext, create_backend
from repro.dse.space import KernelDesignSpace
from repro.estimation.platform import Platform, XC7Z020
from repro.ir.module import ModuleOp


def _kernel_fingerprint(space: KernelDesignSpace, func_op,
                        platform: Platform) -> str:
    """Cache/checkpoint identity of (kernel, design space, pipeline, platform).

    ``space.fingerprint()`` covers the kernel IR only when the space was
    built via :meth:`KernelDesignSpace.from_function`; a directly
    constructed space (``ir_digest == ""``) would collide across different
    kernels with the same shape.  The runtime always has the function at
    hand, so it mixes the actual IR digest in for that case.

    The canonical pipeline signature of the evaluation flow is always mixed
    in: cached estimates produced under a different transform pipeline must
    never be reused.  The same goes for the hardware model: the
    ``config_hash()`` of ``platform`` (the sweep's single target) is mixed
    in unless the space carries its own platform dimension, whose
    fingerprint already hashes every platform of the sweep — so estimates
    cached under one platform are never served to a sweep over another.
    """
    parts = [space.fingerprint(), kernel_pipeline_signature()]
    if not space.platforms:
        parts.append(platform.config_hash())
    if not space.ir_digest:
        from repro.dse.space import ir_digest

        parts.append(ir_digest(func_op))
    combined = ":".join(parts)
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()[:20]


def _function(module: ModuleOp, func_name: Optional[str]):
    """``func_name`` of ``module``, or its first function when None."""
    if not func_name:
        return module.functions()[0]
    func_op = module.lookup(func_name)
    if func_op is None:
        raise ValueError(f"function {func_name!r} not found in the module")
    return func_op


def _copy_of(result: ParallelDSEResult, task: KernelTask,
             representative: str) -> ParallelDSEResult:
    """``task``'s result when ``representative`` swept the trajectory they
    share: its records on the task's own module, each one a hit, and each
    evaluation it made this run a shared hit."""
    return dataclasses.replace(
        result, records=dict(result.records), frontier=list(result.frontier),
        module=task.module, func_name=task.func_name, space=task.space,
        shared_with=representative, evaluated_this_run=0, cache_misses=0,
        resolved_siblings=0, resolved_aliases=0,
        shared_hits=result.evaluated_this_run,
        cache_hits=result.cache_hits + result.evaluated_this_run)


def _task_config(config: SweepConfig, task: KernelTask) -> SweepConfig:
    """``config`` with the budgets ``task`` overrides."""
    return dataclasses.replace(config, **{
        name: value for name in ("num_samples", "max_iterations")
        if (value := getattr(task, name)) is not None})


@dataclasses.dataclass
class KernelTask:
    """One kernel to explore: where it lives and how much budget it gets.

    ``key`` names the task everywhere: the worker context, the checkpoint
    file (``<key>.ckpt.json`` under the scheduler's ``checkpoint_dir``) and
    the result dictionary.  ``num_samples`` and ``max_iterations`` override
    the sweep's budgets when set — the per-node budget policy of the
    whole-model sweep uses them to give light dataflow stages
    proportionally smaller explorations.
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
    #: Where the kernel checkpoints.  When None the scheduler fills in
    #: ``<key>.ckpt.json`` under its ``checkpoint_dir`` (and without one the
    #: kernel does not checkpoint, nor does it in a sweep whose estimate
    #: cache has a file: that cache is its durable store).
    checkpoint_path: Optional[str] = None
    #: The kernel's cache/checkpoint identity, filled in by the scheduler,
    #: once per sweep, on its own copy of the task.
    fingerprint: str = ""


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

        # Structurally identical kernels share a fingerprint, hence their
        # trajectory: one coordinator per class runs its members in task
        # order (_explore_class), and a member with its representative's
        # budgets takes a copy of that one's result.  Only representatives
        # evaluate, so only their contexts reach the backend.
        config = self.config
        classes: dict[str, list[KernelTask]] = {}
        swept: dict[tuple, str] = {}
        representative_of: dict[str, str] = {}
        for index, task in enumerate(tasks):
            fingerprint = _kernel_fingerprint(
                task.space, _function(task.module, task.func_name),
                self.platform)
            checkpoint_path = task.checkpoint_path
            if checkpoint_path is None and self.checkpoint_dir:
                checkpoint_path = os.path.join(self.checkpoint_dir,
                                               f"{task.key}.ckpt.json")
            tasks[index] = task = dataclasses.replace(
                task, fingerprint=fingerprint,
                checkpoint_path=checkpoint_path)
            classes.setdefault(fingerprint, []).append(task)
            task_config = _task_config(config, task)
            representative_of[task.key] = swept.setdefault(
                (fingerprint, task_config.num_samples,
                 task_config.max_iterations, task.max_evaluations), task.key)
        signature = kernel_pipeline_signature()
        contexts = {
            task.key: KernelContext(module=task.module, func_name=task.func_name,
                                    platform=self.platform, space=task.space,
                                    pipeline=signature)
            for task in tasks if representative_of[task.key] == task.key
        }

        stop_event = threading.Event()
        backend = create_backend(contexts, config, stop_event)
        schedule_span = obs.NULL_SPAN if obs.active() is None else obs.span(
            "dse.schedule", kernels=len(tasks), jobs=config.jobs)
        try:
            with schedule_span:
                if config.jobs <= 1 or len(tasks) == 1:
                    # Task order already puts every representative first.
                    return self._explore_class(tasks, representative_of,
                                               backend, resume,
                                               attribute=False)
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
                                            representative_of, backend,
                                            resume)
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
            func_op = _function(module, name)
            try:
                space = KernelDesignSpace.from_function(
                    func_op, platforms=self.config.platforms or None)
            except ValueError:
                continue  # no loop nest to explore
            tasks.append(KernelTask(key=name, module=module, func_name=name,
                                    space=space))
        return tasks

    def _explore_class(self, members: Sequence[KernelTask],
                       representative_of: dict[str, str], backend,
                       resume: bool, attribute: bool = True
                       ) -> dict[str, ParallelDSEResult]:
        """Explore ``members`` in order: a task whose representative (the
        first task with its fingerprint and budgets) is another one takes
        a copy of that one's result.

        With ``attribute``, errors are attributed to the kernel that raised
        them.
        """
        results: dict[str, ParallelDSEResult] = {}
        for task in members:
            task_config = _task_config(self.config, task)
            representative = representative_of[task.key]
            if representative != task.key:
                result = _copy_of(results[representative], task,
                                  representative)
            else:
                try:
                    result = _explore_trajectory(task, self.platform,
                                                 task_config, backend, resume)
                except EvaluationFailure:
                    raise
                except Exception as error:
                    if not attribute:
                        raise
                    raise EvaluationFailure(
                        f"DSE for kernel {task.key!r} failed: "
                        f"{type(error).__name__}: {error}") from error
            results[task.key] = result
            if obs.active() is not None:
                obs.gauge(f"dse.node.{task.key}.iterations_done",
                          result.iterations_done)
                obs.gauge(f"dse.node.{task.key}.iterations_budget",
                          task_config.max_iterations)
                obs.gauge(f"dse.node.{task.key}.samples_budget",
                          task_config.num_samples)
                if result.shared_with is not None:
                    obs.counter("dse.shared.nodes")
                    obs.counter("dse.shared.points", result.shared_hits)
        return results


class ParallelExplorer:
    """DSE of one kernel: a one-task :class:`MultiKernelScheduler` sweep
    under the key ``"kernel"`` (its fault-plan victims, ``dse:kernel``
    track and ``dse.node.kernel.*`` metrics)."""

    def __init__(self, platform: Platform = XC7Z020,
                 config: SweepConfig = SweepConfig(), *,
                 checkpoint_path: Optional[str] = None,
                 max_evaluations: Optional[int] = None):
        self.platform = platform
        self.config = config
        self.checkpoint_path = checkpoint_path
        #: Hard cap on points processed this run; not part of the
        #: trajectory, so a capped run checkpoints a resumable prefix of the
        #: uncapped one.
        self.max_evaluations = max_evaluations

    def explore(self, module: ModuleOp,
                space: Optional[KernelDesignSpace] = None,
                func_name: Optional[str] = None,
                resume: bool = False) -> ParallelDSEResult:
        """Explore ``module``'s kernel (``func_name``, or its first
        function) over ``space`` (by default the function's own);
        optionally resume from the checkpoint."""
        if space is None:
            space = KernelDesignSpace.from_function(
                _function(module, func_name),
                platforms=self.config.platforms or None)
        task = KernelTask(key="kernel", module=module, func_name=func_name,
                          space=space, max_evaluations=self.max_evaluations,
                          checkpoint_path=self.checkpoint_path)
        scheduler = MultiKernelScheduler(self.platform, self.config)
        return scheduler.explore_kernels([task], resume=resume)["kernel"]

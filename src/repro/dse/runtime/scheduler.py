"""Every DSE sweep, from one kernel to every node of a model.

A DNN compiled through the graph flow (:func:`repro.pipeline.compile_dnn`)
contains one lowered function per dataflow stage; sweeping a whole model
means running DSE for each of them.  :func:`explore_kernels` does so
under a *shared resource budget*: one worker pool of ``jobs`` processes
serves all kernels, coordinator threads interleave their batches onto it,
and a shared :class:`EstimateCache` deduplicates work across kernels and
runs.  A single kernel (:func:`repro.pipeline.explore_kernel`) is a
one-task sweep under the key ``"kernel"``.

:func:`explore_kernels` is the one owner of what a sweep shares: it
creates and closes the backend, fingerprints every kernel and decides where
they checkpoint (``checkpoint_dir``).  A kernel's trajectory
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
whole-model sweep (:mod:`repro.dse.runtime.model`) builds one task per
DNN node, each against its own single-function module: workers receive
the context of every task that sweeps (not of those that take a copy) up
front, in one initializer payload of single-function modules.

Each kernel's trajectory stays fully deterministic — it only depends on the
kernel's own ``(seed, budget)`` stream, never on how the pool interleaved
the evaluations of its neighbors.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import functools
import hashlib
import threading
import time
from typing import Optional, Sequence

from repro import obs
from repro.dse.apply import kernel_pipeline_signature
from repro.dse.runtime.config import SweepConfig
from repro.dse.runtime.faults import EvaluationFailure
from repro.dse.runtime.parallel import (
    ParallelDSEResult,
    _explore_trajectory,
    sweep_target,
)
from repro.dse.runtime.worker import KernelContext, create_backend
from repro.dse.space import KernelDesignSpace
from repro.estimation.platform import Platform
from repro.ir.module import ModuleOp


def _kernel_fingerprint(space: KernelDesignSpace, platform: Platform) -> str:
    """Cache/checkpoint identity of (kernel, design space, pipeline, platform).

    ``space.fingerprint()`` is the kernel's identity as well as the space's:
    a space always carries its kernel's ``ir_digest``, and its band is that
    of the kernel's :func:`~repro.transforms.composite.design_nest`.

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
    combined = ":".join(parts)
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()[:20]


def _copy_of(result: ParallelDSEResult, task: KernelTask,
             representative: str) -> ParallelDSEResult:
    """``task``'s result when ``representative`` swept the trajectory they
    share: its records on the task's own module, each one a hit, and each
    evaluation it made this run a shared hit."""
    return dataclasses.replace(
        result, records=dict(result.records), frontier=list(result.frontier),
        module=task.module, func_name=task.func_name, space=task.space,
        kept_design=None,
        shared_with=representative, evaluated_this_run=0, cache_misses=0,
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
    file (``<key>.ckpt.json`` under the sweep's ``checkpoint_dir``) and
    the result dictionary.  ``num_samples`` and ``max_iterations`` override
    the sweep's budgets when set — the whole-model sweep's ``node_budget``
    uses them to give light dataflow stages proportionally smaller
    explorations.
    """

    key: str
    module: ModuleOp
    func_name: Optional[str]
    space: KernelDesignSpace
    num_samples: Optional[int] = None
    max_iterations: Optional[int] = None
    #: Bounds the points this run has to evaluate (used to bound partial
    #: sweeps), checked at batch boundaries, step 1 included: step 1's whole
    #: sample is evaluated and the batch that reaches the bound is not cut.
    #: Unlike the budgets above it is not part of the trajectory, so a
    #: capped run stores a prefix of the uncapped one, and what the cache or
    #: the checkpoint serves on a re-run is free.
    max_evaluations: Optional[int] = None
    #: Whether the sweep keeps the kernel's best design (built inline or
    #: shipped back by a pool worker) for
    #: :meth:`ParallelDSEResult.materialize` to hand over instead of
    #: rebuilding it.  The whole-model sweep and ``dse``, which read
    #: records only, keep none, and their pool workers encode nothing.
    keep_design: bool = True
    #: The kernel's cache/checkpoint identity, filled in by
    #: :func:`explore_kernels`, once per sweep, on its own copy of the task.
    fingerprint: str = ""


def explore_kernels(tasks: Sequence[KernelTask], platform: Platform,
                    config: SweepConfig, *,
                    checkpoint_dir: Optional[str] = None
                    ) -> dict[str, ParallelDSEResult]:
    """Run DSE for every :class:`KernelTask` on one shared pool, each
    continuing from its checkpoint under ``checkpoint_dir`` if one exists.

    Returns results keyed by ``task.key`` (insertion order preserved).
    A multi-platform sweep finalizes for ``platform``, one of ``config.platforms``.
    With more than one task, at any ``jobs``, an error is raised as an
    :class:`EvaluationFailure` naming the kernel it came from.  The
    sweep's wall-clock and ``jobs`` are the run gauges
    ``dse.wall_seconds`` / ``dse.jobs`` the run summary reads.
    """
    started = time.perf_counter()
    if config.platforms and platform not in config.platforms:
        raise ValueError(f"the sweep platform {platform.name!r} is not "
                         f"one of the swept platforms")
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
    classes: dict[str, list[KernelTask]] = {}
    swept: dict[tuple, str] = {}
    representative_of: dict[str, str] = {}
    for index, task in enumerate(tasks):
        task.module.function(task.func_name)  # ValueError naming a missing one
        fingerprint = _kernel_fingerprint(task.space, platform)
        tasks[index] = task = dataclasses.replace(task, fingerprint=fingerprint)
        classes.setdefault(fingerprint, []).append(task)
        task_config = _task_config(config, task)
        representative_of[task.key] = swept.setdefault(
            (fingerprint, task_config.num_samples,
             task_config.max_iterations, task.max_evaluations), task.key)
    signature = kernel_pipeline_signature()
    # A pool worker ships a task's designs only if its trajectory keeps one.
    target = sweep_target(platform, config)
    contexts = {
        task.key: KernelContext(module=task.module, func_name=task.func_name,
                                platform=platform, space=task.space,
                                pipeline=signature,
                                keep_for=target if task.keep_design else None)
        for task in tasks if representative_of[task.key] == task.key
    }

    stop_event = threading.Event()
    run = contextlib.ExitStack()  # closes the backend, then the fault ledger
    try:
        if config.faults is not None:
            config = dataclasses.replace(
                config, faults=run.enter_context(config.faults.ledger()))
        backend = run.enter_context(contextlib.closing(
            create_backend(contexts, config, stop_event)))
        explore_class = functools.partial(
            _explore_class, representative_of=representative_of,
            backend=backend, platform=platform, config=config,
            checkpoint_dir=checkpoint_dir, attribute=len(tasks) > 1)
        schedule_span = obs.NULL_SPAN if obs.active() is None else obs.span(
            "dse.schedule", kernels=len(tasks), jobs=config.jobs)
        with schedule_span:
            if config.jobs <= 1 or len(tasks) == 1:
                # Task order already puts every representative first.
                return explore_class(tasks)
            # Spawn the pool's workers from the main thread, before any
            # coordinator threads exist: forking from a multi-threaded
            # process risks inheriting locks held by other threads.
            # Deliberately unspanned: the warm-up only exists for jobs>1,
            # and the trace skeleton must be identical across --jobs.
            backend.warm_up()
            # One coordinator thread per kernel class; they are I/O-bound
            # (waiting on pool results), so threads are enough to keep the
            # pool busy.
            with concurrent.futures.ThreadPoolExecutor(
                    max_workers=len(classes)) as coordinators:
                futures = [coordinators.submit(explore_class, members)
                           for members in classes.values()]
                try:
                    results = {}
                    for future in futures:
                        results.update(future.result())
                    return {task.key: results[task.key] for task in tasks}
                except KeyboardInterrupt:
                    # Ctrl-C: stop submissions, fail in-flight attempts so
                    # every coordinator unblocks, checkpoints its records
                    # and exits; then let the interrupt propagate (the
                    # ThreadPoolExecutor context joins the unblocked
                    # coordinators on the way out).
                    backend.request_stop()
                    for future in futures:
                        future.cancel()
                    raise
    finally:
        run.close()
        if obs.active() is not None:
            obs.gauge("dse.jobs", config.jobs)
            obs.gauge("dse.wall_seconds", time.perf_counter() - started)


def _explore_class(members: Sequence[KernelTask], *,
                   representative_of: dict[str, str], backend,
                   platform: Platform, config: SweepConfig,
                   checkpoint_dir: Optional[str],
                   attribute: bool) -> dict[str, ParallelDSEResult]:
    """Explore ``members`` in order: a task whose representative (the first
    task with its fingerprint and budgets) is another one takes a copy of
    that one's result.

    With ``attribute``, errors are attributed to the kernel that raised
    them.
    """
    results: dict[str, ParallelDSEResult] = {}
    for task in members:
        task_config = _task_config(config, task)
        representative = representative_of[task.key]
        if representative != task.key:
            result = _copy_of(results[representative], task, representative)
        else:
            try:
                result = _explore_trajectory(task, platform, task_config,
                                             backend, checkpoint_dir)
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

"""One kernel's exploration trajectory.

:func:`_explore_trajectory` drives the :class:`ExplorationPolicy` of the
paper's 5-step algorithm in *batches*: every iteration proposes
``batch_size`` distinct unexplored neighbors against the current frontier,
evaluates the batch through an evaluation backend (inline or a local process
pool), then merges the results and recomputes the frontier.
``batch_size=1`` is the paper's one-neighbour-at-a-time traversal.

The trajectory owns no backend, fingerprint or checkpoint directory:
:func:`~repro.dse.runtime.scheduler.explore_kernels` hands it all three,
for a single kernel (:func:`repro.pipeline.explore_kernel`) as for every
node of a model.

Determinism contract
--------------------

For a fixed ``(seed, num_samples, max_iterations, batch_size)`` the explorer
visits the same points and returns the same frontier regardless of

* the number of worker processes (``jobs``) — proposals never depend on
  evaluation completion order, and the frontier is a pure function of the
  evaluated *set*;
* cache warmth — cached records equal freshly evaluated ones because
  evaluation is deterministic;
* interruption — every run starts at step 1 and replays the trajectory:
  each point the estimate cache or the kernel's checkpoint holds is served
  from it, and only the rest is evaluated.  A checkpoint is read back
  whenever it exists; it holds records only, and any subset of true
  records replays exactly, so it does not matter where a finished run, a
  cap, Ctrl-C or ``kill -9`` stopped.  A sweep with a persistent estimate
  cache keeps no checkpoint.

``batch_size`` is deliberately independent of ``jobs``: it is part of the
exploration trajectory, while ``jobs`` is purely an execution detail.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.dse.apply import (
    AppliedDesign,
    adopt_design,
    apply_design_point,
    cleanup_pipeline_spec,
)
from repro.dse.engine import ExplorationPolicy
from repro.dse.incremental import PrefixSnapshotCache, post_prefix_band
from repro.dse.pareto import ParetoPoint, hypervolume
from repro.dse.runtime.checkpoint import CheckpointStore
from repro.dse.runtime.config import SweepConfig
from repro.dse.runtime.records import EvaluationRecord
from repro.dse.runtime.worker import _KeptDesign
from repro.dse.space import KernelDesignSpace
from repro.estimation.platform import Platform
from repro.ir.module import ModuleOp
from repro.transforms.composite import knobs_not_applied, plan_design_point

if TYPE_CHECKING:  # pragma: no cover - the scheduler imports this module
    from repro.dse.runtime.scheduler import KernelTask


class _ClassResults:
    """What the evaluations dispatched so far answered, by program.

    An evaluation transforms a whole *transform class* — every design point
    that stages to one program (:class:`_ProgramIdentities`) and shares its
    cleanup pipeline and platform — and its record carries the
    records of the class's other target IIs.  Entries are keyed by that
    identity plus the target II.  ``answered`` holds the designs the
    trajectory asked for, ``spare`` the II-siblings that rode along unasked.
    The key is a function of the decoded point, so it also catches encodings
    whose tile product ``decode`` clamps to a design already answered.
    Run-local and never checkpointed: a re-run evaluates a lost classmate
    again, to the same record.
    """

    def __init__(self):
        self.answered: dict = {}
        self.spare: dict = {}
        #: Points resolved from ``spare`` / from ``answered`` so far.
        self.siblings = 0
        self.aliases = 0

    def __contains__(self, key) -> bool:
        return key in self.answered or key in self.spare

    def add(self, record: EvaluationRecord, identity: tuple) -> EvaluationRecord:
        """Take in a backend's record of a point with ``identity``; returns
        it as the explorer stores it (nothing riding on it).  A quarantined
        record answers for nobody."""
        siblings = record.siblings
        if siblings:
            record = dataclasses.replace(record, siblings=())
        if record.ok:
            self.answered[identity, record.point.target_ii] = record
            for sibling in siblings:
                self.spare.setdefault((identity, sibling.point.target_ii),
                                      sibling)
        return record

    def resolve(self, identity: tuple, point,
                encoded: tuple[int, ...]) -> EvaluationRecord:
        """The record of ``point``, whose key must be contained, under its
        own ``encoded`` and ``point``: QoR and achieved II are the class's,
        the knob values are the asker's."""
        key = (identity, point.target_ii)
        record = self.answered.get(key)
        if record is not None:
            self.aliases += 1
        else:
            record = self.answered[key] = self.spare.pop(key)
            self.siblings += 1
        if record.encoded != encoded or record.point != point:
            record = dataclasses.replace(record, encoded=encoded, point=point)
        return record


class _ProgramIdentities:
    """Everything but the target II that an evaluation is a function of, per
    design point of one kernel: the post-prefix IR's digest, what the suffix
    does to its band (:func:`~repro.transforms.composite.plan_design_point`),
    the cleanup pipeline's spec and the platform's name.

    Computed by the coordinator, so which tasks a batch dispatches never
    depends on the backend, from one post-prefix build per prefix key
    (:func:`~repro.dse.incremental.post_prefix_band`).  The digest, not the
    prefix key, leads: a prefix knob that finds nothing to do (perfectizing
    around a variable-bound loop) leaves the program of the other setting.

    ``snapshots`` is the prefix-snapshot cache of a backend that evaluates
    in this process (None for worker processes, which keep their own): the
    build then goes into it as the snapshot the evaluations check out,
    instead of being made twice.
    """

    def __init__(self, module: ModuleOp, func_name: Optional[str],
                 snapshots: Optional[PrefixSnapshotCache] = None,
                 digest: Optional[str] = None):
        self._module = module
        self._func_name = func_name
        self._snapshots = snapshots
        self._digest = digest
        self._bands: dict[str, tuple[str, tuple]] = {}

    def __len__(self) -> int:
        """How many prefixes were built so far."""
        return len(self._bands)

    def of(self, point) -> tuple:
        """``(digest, plan, cleanup spec, platform)`` of ``point``."""
        prefix = point.prefix_key()
        band = self._bands.get(prefix)
        if band is None:
            band = self._bands[prefix] = post_prefix_band(
                self._module, point, self._func_name, self._snapshots,
                self._digest)
        digest, shape = band
        return (digest,
                plan_design_point(shape, point.perm_map, point.tile_sizes),
                cleanup_pipeline_spec(point.pipeline), point.platform)


def sweep_target(platform: Platform, config: SweepConfig) -> str:
    """The platform name the points of the sweep's platform carry (``""``
    in a single-platform sweep)."""
    return platform.name if config.platforms else ""


def _on_platform(records: dict, name: str) -> dict:
    """The records of ``records`` evaluated against platform ``name``."""
    return {encoded: record for encoded, record in records.items()
            if record.point.platform == name}


@dataclasses.dataclass
class ParallelDSEResult:
    """Outcome of one exploration run.

    Evaluations are slim :class:`EvaluationRecord` objects; the optimized IR
    of interesting designs is re-materialized on demand via
    :meth:`materialize`, except the best one's when the sweep kept it
    (``kept_design``, built inline or shipped back by a pool worker): the
    first call for it hands that over.
    """

    frontier: list[ParetoPoint]
    records: dict[tuple[int, ...], EvaluationRecord]
    #: The finalized design among those built for the sweep's platform
    #: (:meth:`best_record_for` of it in a multi-platform sweep).
    best_record: Optional[EvaluationRecord]
    num_evaluations: int
    evaluated_this_run: int
    cache_hits: int
    cache_misses: int
    space: KernelDesignSpace
    fingerprint: str
    wall_seconds: float
    module: ModuleOp
    func_name: Optional[str]
    platform: Platform
    #: Refinement iterations completed over the kernel's whole trajectory
    #: (across re-runs).  Reporting-only: deliberately absent from any
    #: exported JSON so artifacts stay byte-identical run to run.
    iterations_done: int = 0
    #: Key of the structurally identical kernel whose trajectory this
    #: result copies (None for a kernel that ran its own), and how many of
    #: ``cache_hits`` were evaluations that kernel made this run.
    shared_with: Optional[str] = None
    shared_hits: int = 0
    #: An evaluation of ``best_record``'s transform class that this run
    #: built, inline or in a pool worker, for :meth:`materialize` to hand
    #: over once.
    kept_design: Optional[AppliedDesign] = dataclasses.field(
        default=None, repr=False, compare=False)

    def frontier_records(self) -> list[EvaluationRecord]:
        return [self.records[point.encoded] for point in self.frontier]

    # -- per-platform views (multi-platform sweeps) ------------------------------------------

    def platform_names(self) -> list[str]:
        """The sweep's platform names (empty for single-platform runs)."""
        return list(self.space.platform_options)

    def frontier_records_for(self, name: str) -> list[EvaluationRecord]:
        """Pareto frontier over the points evaluated against one platform."""
        return [point.payload for point in
                ExplorationPolicy.frontier_of(_on_platform(self.records, name))]

    def best_record_for(self, name: str) -> Optional[EvaluationRecord]:
        """Finalized design of one platform of the sweep (step 5 per target)."""
        return ExplorationPolicy.finalize(_on_platform(self.records, name),
                                          self.space.platform_named(name))

    def quarantined_records(self) -> list[EvaluationRecord]:
        """Points whose evaluation failed for good (it raised, or its
        worker was lost more often than retried), in encoded order."""
        return [record for _, record in sorted(self.records.items())
                if not record.ok]

    @property
    def num_quarantined(self) -> int:
        return sum(1 for record in self.records.values() if not record.ok)

    def materialize(self, encoded: tuple[int, ...]) -> AppliedDesign:
        """Re-apply a design point to get its optimized module (for emission).

        The best point's design is handed over instead, the first time it
        is asked for, when the sweep kept one (``kept_design``); it equals
        the re-applied one in every field and printed byte.
        """
        if self.kept_design is not None \
                and tuple(encoded) == self.best_record.encoded:
            design, self.kept_design = self.kept_design, None
            return adopt_design(design, self.best_record.point, self.module)
        point = self.space.decode(encoded)
        platform = (self.space.platform_named(point.platform)
                    if point.platform else self.platform)
        return apply_design_point(self.module, point, platform,
                                  func_name=self.func_name)

    def best_design(self) -> Optional[AppliedDesign]:
        if self.best_record is None:
            return None
        return self.materialize(self.best_record.encoded)


def _explore_trajectory(task: KernelTask, platform: Platform,
                        config: SweepConfig, backend,
                        checkpoint_dir: Optional[str]) -> ParallelDSEResult:
    """Explore ``task``'s kernel, continuing from its checkpoint
    (``<key>.ckpt.json`` under ``checkpoint_dir``) if one exists.

    The scheduler hands over everything: the ``task`` with its fingerprint
    filled in, the sweep ``config`` with the task's budgets applied, the
    ``backend`` that evaluates every kernel of the sweep under ``task.key``
    and the ``checkpoint_dir`` (None: the kernel keeps no checkpoint).
    """
    started = time.perf_counter()
    cache = config.cache
    key, module, func_name, space = (task.key, task.module, task.func_name,
                                     task.space)
    fingerprint = task.fingerprint

    # Every run starts at step 1 and replays: a step is a pure function of
    # the seed and the records seen so far, so each point the estimate
    # cache or the checkpoint holds is served from it and only the rest is
    # evaluated.  A persistent cache is the sweep's durable store (it never
    # drops a record), so such a sweep keeps no checkpoint; where one would
    # be written, the cache's appended lines are made durable.
    persistent = cache is not None and bool(cache.path)
    store = None
    restored = {}
    if checkpoint_dir and not persistent:
        store = CheckpointStore(os.path.join(checkpoint_dir,
                                             f"{key}.ckpt.json"))
        restored = store.load(expected_fingerprint=fingerprint) or {}
    records: dict[tuple[int, ...], EvaluationRecord] = {}
    iterations_done = 0

    evaluated_this_run = 0
    since_checkpoint = 0
    run_hits = 0
    run_misses = 0

    obs_on = obs.active() is not None

    classes = _ClassResults()
    # Only a backend that evaluates in this process offers its cache.
    offer = getattr(backend, "prefix_snapshots", None)
    programs = _ProgramIdentities(module, func_name,
                                  offer(key) if offer is not None else None,
                                  space.ir_digest)
    target = sweep_target(platform, config)
    keeper = None
    if task.keep_design:
        keeper = _KeptDesign(platform, target)
        backend.keep_designs(key, keeper)

    def dispatch(encodings: list[tuple[int, ...]], identities: dict,
                 fresh: dict[tuple[int, ...], EvaluationRecord]) -> None:
        if encodings:
            for record in backend.evaluate(key, encodings):
                fresh[record.encoded] = classes.add(
                    record, identities[record.encoded])

    def evaluate_batch(batch: list[tuple[int, ...]]) -> None:
        """Resolve ``batch`` into ``records``: the cache first, then the
        checkpoint, then the backend."""
        nonlocal evaluated_this_run, since_checkpoint, run_hits, run_misses
        resolved_before = (classes.siblings, classes.aliases)
        batch_span = obs.NULL_SPAN if not obs_on else obs.span(
            "dse.batch", kernel=key, points=len(batch))
        with batch_span:
            missing: list[tuple[int, ...]] = []
            hits = stored = 0
            for encoded in batch:
                stored += encoded in restored
                record = (cache.get(fingerprint, encoded)
                          if cache is not None else None)
                if record is not None:
                    hits += 1
                else:
                    record = restored.get(encoded)
                if record is not None:
                    records[encoded] = record
                else:
                    missing.append(encoded)
            batch_span.set(cached=hits)

            points = {encoded: space.decode(encoded) for encoded in missing}
            # One span per batch whatever it builds, so the trace
            # skeleton stays the trajectory's.
            staged_before = len(programs)
            identity_span = obs.NULL_SPAN if not obs_on else obs.span(
                "dse.identity", kernel=key)
            staging_started = time.perf_counter()
            with identity_span:
                identities = {encoded: programs.of(point)
                              for encoded, point in points.items()}
                identity_span.set(staged=len(programs) - staged_before)
            if obs_on:
                obs.counter("dse.identity.seconds",
                            time.perf_counter() - staging_started)

            # One task per transform class: the first point of the batch
            # no earlier task answered represents its class, classmates
            # wait for its record and the siblings it carries.  A point
            # an active fault plan selects is always dispatched itself,
            # so the plan fires exactly where it does without classes.
            representatives: dict = {}
            waiting: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            tasks: list[tuple[int, ...]] = []
            for encoded in missing:
                identity = identities[encoded]
                if config.faults is not None \
                        and config.faults.matches(key, encoded):
                    tasks.append(encoded)
                elif (identity, points[encoded].target_ii) not in classes:
                    representative = representatives.setdefault(
                        identity, encoded)
                    if representative == encoded:
                        waiting[encoded] = []
                        tasks.append(encoded)
                    else:
                        waiting[representative].append(encoded)
            fresh: dict[tuple[int, ...], EvaluationRecord] = {}
            dispatch(tasks, identities, fresh)
            # A quarantined representative answered for nobody.
            dispatch([encoded for representative, mates in waiting.items()
                      if not fresh[representative].ok
                      for encoded in mates], identities, fresh)
            batch_span.set(classes=len(fresh))

            for encoded in missing:
                record = fresh.get(encoded)
                if record is None:
                    record = classes.resolve(identities[encoded],
                                             points[encoded], encoded)
                records[encoded] = record
                if cache is not None:
                    cache.put(fingerprint, record)
        if cache is not None:
            run_hits += hits
            run_misses += len(missing)
        evaluated_this_run += len(missing)
        # What the checkpoint held is on disk already.
        since_checkpoint += len(batch) - stored
        if obs_on:
            obs.counter("dse.points", len(batch))
            obs.counter("dse.evaluations", len(fresh))
            obs.counter("dse.resolved.siblings",
                        classes.siblings - resolved_before[0])
            obs.counter("dse.resolved.aliases",
                        classes.aliases - resolved_before[1])
            skipped = [knobs_not_applied(identities[encoded][1],
                                         point.perm_map, point.tile_sizes)
                       for encoded, point in points.items()]
            obs.counter("dse.knob.skipped.perm",
                        sum(perm for perm, _ in skipped))
            obs.counter("dse.knob.skipped.tile",
                        sum(tile for _, tile in skipped))
            obs.observe("dse.batch.points", len(batch))

    def record_frontier(frontier: list[ParetoPoint]) -> None:
        """Per-iteration convergence series: frontier size + hypervolume.

        Keyed by the trajectory step (``iterations_done``), not by time,
        so the series is identical across ``--jobs``.  The hypervolume's
        reference is the frontier's own worst corner (max latency, max
        area), so it needs no bounds and an empty frontier's is 0.
        """
        if obs_on:
            obs.series(f"dse.frontier.size.{key}",
                       iterations_done, len(frontier))
            corner = (max((point.latency for point in frontier), default=0),
                      max((point.area for point in frontier), default=0))
            obs.series(f"dse.frontier.hv.{key}", iterations_done,
                       hypervolume(frontier, corner))

    def maybe_checkpoint(force: bool = False) -> None:
        nonlocal since_checkpoint
        if not force and since_checkpoint < config.checkpoint_every:
            return
        if persistent:
            cache.sync()
        elif store is not None:
            store.save(fingerprint, records)
        since_checkpoint = 0

    def budget_left() -> bool:
        return (task.max_evaluations is None
                or evaluated_this_run < task.max_evaluations)

    explore_span = obs.NULL_SPAN if not obs_on else obs.span(
        "dse.explore", kernel=key, jobs=config.jobs,
        batch_size=config.batch_size, seed=config.seed)
    try:
        with obs.track(f"dse:{key}"), explore_span:
            rng = random.Random(config.seed)

            # Step 1: initial sampling.
            evaluate_batch(ExplorationPolicy.initial_batch(
                space, rng, config.num_samples))
            maybe_checkpoint()

            frontier = ExplorationPolicy.frontier_of(records)
            record_frontier(frontier)

            # Steps 2-4: batched frontier evolution.
            while (iterations_done < config.max_iterations and frontier
                   and budget_left()):
                remaining = config.max_iterations - iterations_done
                batch = ExplorationPolicy.propose_batch(
                    frontier, space, records, rng,
                    batch_size=min(config.batch_size, remaining))
                if not batch:
                    break
                evaluate_batch(batch)
                iterations_done += len(batch)
                maybe_checkpoint()
                frontier = ExplorationPolicy.frontier_of(records)
                record_frontier(frontier)

            maybe_checkpoint(force=True)

            # Step 5: finalization, over the sweep platform's designs.
            best = ExplorationPolicy.finalize(_on_platform(records, target),
                                              platform)
            kept = (keeper.hand_over(best, programs) if keeper is not None
                    else None)
    except KeyboardInterrupt:
        # Graceful interruption: every record so far is true, and any
        # subset of true records replays the exact trajectory, so save
        # them all (or sync the cache), then let the interrupt propagate
        # to the caller (the driver turns it into a one-line re-run hint).
        maybe_checkpoint(force=True)
        raise

    return ParallelDSEResult(
        frontier=frontier,
        records=records,
        best_record=best,
        num_evaluations=len(records),
        evaluated_this_run=evaluated_this_run,
        cache_hits=run_hits,
        cache_misses=run_misses,
        space=space,
        fingerprint=fingerprint,
        wall_seconds=time.perf_counter() - started,
        module=module,
        func_name=func_name,
        platform=platform,
        iterations_done=iterations_done,
        kept_design=kept,
    )

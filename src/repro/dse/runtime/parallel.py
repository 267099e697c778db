"""One kernel's exploration trajectory.

:func:`_explore_trajectory` drives the :class:`ExplorationPolicy` of the
paper's 5-step algorithm in *batches*: every iteration proposes
``batch_size`` distinct unexplored neighbors against the current frontier,
evaluates the batch through an evaluation backend (inline or a local process
pool), then merges the results and recomputes the frontier.
``batch_size=1`` is the paper's one-neighbour-at-a-time traversal.

The trajectory owns no backend, fingerprint or checkpoint name: the
:class:`~repro.dse.runtime.scheduler.MultiKernelScheduler` hands it all
three, for a single kernel
(:class:`~repro.dse.runtime.scheduler.ParallelExplorer`) as for every node
of a model.

Determinism contract
--------------------

For a fixed ``(seed, num_samples, max_iterations, batch_size)`` the explorer
visits the same points and returns the same frontier regardless of

* the number of worker processes (``jobs``) — proposals never depend on
  evaluation completion order, and the frontier is a pure function of the
  evaluated *set*;
* cache warmth — cached records equal freshly evaluated ones because
  evaluation is deterministic;
* interruption — checkpoints snapshot state at batch boundaries, and a
  resumed run replays the exact continuation of the trajectory; a sweep
  with a persistent estimate cache keeps no checkpoint, and its rerun
  replays the trajectory from the cache.

``batch_size`` is deliberately independent of ``jobs``: it is part of the
exploration trajectory, while ``jobs`` is purely an execution detail.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.dse.apply import (
    AppliedDesign,
    apply_design_point,
    cleanup_pipeline_spec,
    kernel_pipeline_signature,
)
from repro.dse.engine import ExplorationPolicy
from repro.dse.incremental import PrefixSnapshotCache, post_prefix_band
from repro.dse.pareto import ParetoPoint
from repro.dse.runtime.checkpoint import CheckpointStore, ExplorerState
from repro.dse.runtime.config import SweepConfig
from repro.dse.runtime.records import EvaluationRecord
from repro.dse.space import KernelDesignSpace
from repro.estimation.platform import Platform
from repro.ir.module import ModuleOp
from repro.transforms.composite import knobs_not_applied, plan_design_point

if TYPE_CHECKING:  # pragma: no cover - the scheduler imports this module
    from repro.dse.runtime.scheduler import KernelTask


def frontier_hypervolume(frontier: list[ParetoPoint]) -> float:
    """Deterministic 2D hypervolume of a (latency, area) Pareto frontier.

    The reference point is the frontier's own worst corner (max latency, max
    area), so the value is a pure function of the frontier — no external
    bounds to configure, deterministic across runs and worker counts.  A
    frontier of fewer than two points has zero dominated area by this
    definition; growth of the value over iterations tracks how much of the
    trade-off curve the exploration has uncovered.
    """
    if len(frontier) < 2:
        return 0.0
    ref_latency = max(point.latency for point in frontier)
    ref_area = max(point.area for point in frontier)
    # Standard 2D staircase sweep: ascending latency, descending area.
    ordered = sorted(frontier, key=lambda p: (p.latency, p.area))
    volume = 0.0
    for point, nxt in zip(ordered, ordered[1:]):
        volume += (nxt.latency - point.latency) * (ref_area - point.area)
    return volume


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
    Run-local and never checkpointed: a resumed run evaluates a lost
    classmate again, to the same record.
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


@dataclasses.dataclass
class ParallelDSEResult:
    """Outcome of one exploration run.

    Evaluations are slim :class:`EvaluationRecord` objects; the optimized IR
    of interesting designs is re-materialized on demand via
    :meth:`materialize`.
    """

    frontier: list[ParetoPoint]
    records: dict[tuple[int, ...], EvaluationRecord]
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
    #: (across resumes).  Reporting-only: deliberately absent from any
    #: exported JSON so artifacts stay byte-identical run to run.
    iterations_done: int = 0
    #: Key of the structurally identical kernel whose trajectory this
    #: result copies (None for a kernel that ran its own), and how many of
    #: ``cache_hits`` were evaluations that kernel made this run.
    shared_with: Optional[str] = None
    shared_hits: int = 0
    #: How many of ``evaluated_this_run`` no evaluation of their own
    #: answered: resolved from the transformed IR of a classmate (an
    #: *II-sibling*: same transforms, another target II) or of the very same
    #: program under other knob values (an *alias*: a clamped tile product,
    #: a permutation or tile size the staging never applied).
    resolved_siblings: int = 0
    resolved_aliases: int = 0

    @property
    def best_point(self):
        return self.best_record.point if self.best_record is not None else None

    def frontier_records(self) -> list[EvaluationRecord]:
        return [self.records[point.encoded] for point in self.frontier]

    # -- per-platform views (multi-platform sweeps) ------------------------------------------

    def platform_names(self) -> list[str]:
        """The sweep's platform names (empty for single-platform runs)."""
        return list(self.space.platform_options)

    def _records_for(self, name: str) -> dict[tuple[int, ...], EvaluationRecord]:
        return {encoded: record for encoded, record in self.records.items()
                if record.point.platform == name}

    def frontier_for(self, name: str):
        """Pareto frontier over the points evaluated against one platform."""
        return ExplorationPolicy.frontier_of(self._records_for(name))

    def frontier_records_for(self, name: str) -> list[EvaluationRecord]:
        records = self._records_for(name)
        return [records[point.encoded] for point in self.frontier_for(name)]

    def best_record_for(self, name: str) -> Optional[EvaluationRecord]:
        """Finalized design of one platform of the sweep (step 5 per target)."""
        records = self._records_for(name)
        return ExplorationPolicy.finalize(self.frontier_for(name), records,
                                          self.space.platform_named(name))

    def quarantined_records(self) -> list[EvaluationRecord]:
        """Points that exhausted their fault retries, in encoded order."""
        return [record for _, record in sorted(self.records.items())
                if not record.ok]

    @property
    def num_quarantined(self) -> int:
        return sum(1 for record in self.records.values() if not record.ok)

    def materialize(self, encoded: tuple[int, ...]) -> AppliedDesign:
        """Re-apply a design point to get its optimized module (for emission)."""
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
                        resume: bool) -> ParallelDSEResult:
    """Explore ``task``'s kernel; optionally resume from its checkpoint.

    The scheduler hands over everything: the ``task`` with its fingerprint
    and its checkpoint path filled in, the sweep ``config`` with the task's
    budgets applied, and the ``backend`` that evaluates every kernel of the
    sweep under ``task.key``.
    """
    started = time.perf_counter()
    cache = config.cache
    key, module, func_name, space = (task.key, task.module, task.func_name,
                                     task.space)
    fingerprint = task.fingerprint

    # The parameters that define the exploration trajectory: a checkpoint
    # taken under different ones must not be resumed (it would continue the
    # *old* trajectory mislabeled as the new configuration).  The pipeline
    # signature guards the *meaning* of every recorded QoR the same way.
    trajectory = {"seed": config.seed, "batch_size": config.batch_size,
                  "num_samples": config.num_samples,
                  "max_iterations": config.max_iterations,
                  "pipeline": kernel_pipeline_signature()}
    # The hardware model(s) the recorded QoRs are valid under: a checkpoint
    # taken against a different platform config (even one merely renamed or
    # re-clocked) must not be resumed.
    if space.platforms:
        # Lists, not tuples: the config must survive the checkpoint's JSON
        # round-trip and still compare equal on load.
        trajectory["platforms"] = [[target.name, target.config_hash()]
                                   for target in space.platforms]
    else:
        trajectory["platform"] = platform.config_hash()
    # A persistent cache is the sweep's durable store: it never drops a
    # record and the trajectory is a function of the seed and the records,
    # so rerunning the sweep replays it from the cache and evaluates only
    # what no run stored.  Such a sweep keeps no checkpoint; where one
    # would be written, the cache's appended lines are made durable.
    persistent = cache is not None and bool(cache.path)
    store = CheckpointStore(task.checkpoint_path) \
        if task.checkpoint_path and not persistent else None
    state = store.load(expected_fingerprint=fingerprint,
                       expected_config=trajectory) \
        if resume and store is not None else None
    if state is None:
        state = ExplorerState.fresh(fingerprint, config.seed,
                                    config=trajectory)

    evaluated_this_run = 0
    processed_this_run = 0
    since_checkpoint = 0
    run_hits = 0
    run_misses = 0

    obs_on = obs.active() is not None

    classes = _ClassResults()
    # Only a backend that evaluates in this process offers its cache.
    offer = getattr(backend, "prefix_snapshots", None)
    programs = _ProgramIdentities(module, func_name,
                                  offer(key) if offer is not None else None,
                                  space.ir_digest or None)

    def dispatch(encodings: list[tuple[int, ...]], identities: dict,
                 fresh: dict[tuple[int, ...], EvaluationRecord]) -> None:
        if encodings:
            for record in backend.evaluate(key, encodings):
                fresh[record.encoded] = classes.add(
                    record, identities[record.encoded])

    def evaluate_batch(batch: list[tuple[int, ...]]) -> None:
        """Resolve ``batch`` into ``state.records``."""
        nonlocal evaluated_this_run, processed_this_run, since_checkpoint
        nonlocal run_hits, run_misses
        resolved_before = (classes.siblings, classes.aliases)
        batch_span = obs.NULL_SPAN if not obs_on else obs.span(
            "dse.batch", kernel=key, points=len(batch))
        with batch_span:
            missing: list[tuple[int, ...]] = []
            for encoded in batch:
                record = (cache.get(fingerprint, encoded)
                          if cache is not None else None)
                if record is not None:
                    state.records[encoded] = record
                else:
                    missing.append(encoded)
            batch_span.set(cached=len(batch) - len(missing))

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
                state.records[encoded] = record
                if cache is not None:
                    cache.put(fingerprint, record)
        if cache is not None:
            run_hits += len(batch) - len(missing)
            run_misses += len(missing)
        evaluated_this_run += len(missing)
        processed_this_run += len(batch)
        since_checkpoint += len(batch)
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
        so the series is identical across ``--jobs``.
        """
        if obs_on:
            obs.series(f"dse.frontier.size.{key}",
                       state.iterations_done, len(frontier))
            obs.series(f"dse.frontier.hv.{key}",
                       state.iterations_done,
                       frontier_hypervolume(frontier))

    def maybe_checkpoint(force: bool = False) -> None:
        nonlocal since_checkpoint
        if not force and since_checkpoint < config.checkpoint_every:
            return
        if persistent:
            cache.sync()
        elif store is not None:
            store.save(state)
        since_checkpoint = 0

    def budget_left() -> bool:
        return (task.max_evaluations is None
                or processed_this_run < task.max_evaluations)

    # A consistent batch-boundary snapshot for interrupt checkpointing:
    # mid-batch state (an advanced RNG plus a partially merged batch)
    # must never reach disk — resuming it would diverge from the
    # uninterrupted trajectory.  Taken at the start and after every
    # fully merged batch, and what a Ctrl-C checkpoint saves; the records
    # are insertion-ordered and no key is assigned twice, so their count
    # is enough.
    boundary = None

    def mark_boundary() -> None:
        nonlocal boundary
        if store is not None:
            boundary = (len(state.records), state.samples_done,
                        state.iterations_done, state.rng_state)

    def checkpoint_boundary() -> None:
        if persistent:
            cache.sync()
        elif boundary is not None:
            count, state.samples_done, state.iterations_done, rng_state \
                = boundary
            state.rng.setstate(rng_state)
            state.records = dict(list(state.records.items())[:count])
            store.save(state)

    explore_span = obs.NULL_SPAN if not obs_on else obs.span(
        "dse.explore", kernel=key, jobs=config.jobs,
        batch_size=config.batch_size, seed=config.seed)
    try:
        with obs.track(f"dse:{key}"), explore_span:
            rng = state.rng
            mark_boundary()

            # Step 1: initial sampling (skipped entirely when resuming
            # past it).
            if not state.samples_done:
                batch = ExplorationPolicy.initial_batch(
                    space, rng, config.num_samples)
                evaluate_batch([e for e in batch if e not in state.records])
                state.samples_done = True
                mark_boundary()
                maybe_checkpoint()

            frontier = ExplorationPolicy.frontier_of(state.records)
            record_frontier(frontier)

            # Steps 2-4: batched frontier evolution.
            while (state.iterations_done < config.max_iterations and frontier
                   and budget_left()):
                remaining = config.max_iterations - state.iterations_done
                batch = ExplorationPolicy.propose_batch(
                    frontier, space, state.records, rng,
                    batch_size=min(config.batch_size, remaining))
                if not batch:
                    break
                evaluate_batch(batch)
                state.iterations_done += len(batch)
                mark_boundary()
                maybe_checkpoint()
                frontier = ExplorationPolicy.frontier_of(state.records)
                record_frontier(frontier)

            maybe_checkpoint(force=True)

            # Step 5: finalization.
            best = ExplorationPolicy.finalize(frontier, state.records,
                                              platform)
    except KeyboardInterrupt:
        # Graceful interruption: persist the last completed batch
        # boundary (or the cache) so a rerun continues the exact
        # trajectory, then let the interrupt propagate to the caller (the
        # driver turns it into a one-line resume hint).
        checkpoint_boundary()
        raise

    return ParallelDSEResult(
        frontier=frontier,
        records=dict(state.records),
        best_record=best,
        num_evaluations=len(state.records),
        evaluated_this_run=evaluated_this_run,
        cache_hits=run_hits,
        cache_misses=run_misses,
        space=space,
        fingerprint=fingerprint,
        wall_seconds=time.perf_counter() - started,
        module=module,
        func_name=func_name,
        platform=platform,
        iterations_done=state.iterations_done,
        resolved_siblings=classes.siblings,
        resolved_aliases=classes.aliases,
    )

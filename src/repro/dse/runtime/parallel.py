"""The design-space exploration coordinator.

:class:`ParallelExplorer` drives the :class:`ExplorationPolicy` of the
paper's 5-step algorithm in *batches*: every iteration proposes
``batch_size`` distinct unexplored neighbors against the current frontier,
evaluates the batch through an evaluation backend (inline or a local process
pool), then merges the results and recomputes the frontier.
``batch_size=1`` is the paper's one-neighbour-at-a-time traversal.

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
  resumed run replays the exact continuation of the trajectory.

``batch_size`` is deliberately independent of ``jobs``: it is part of the
exploration trajectory, while ``jobs`` is purely an execution detail.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Optional

from repro import obs
from repro.dse.apply import (
    AppliedDesign,
    apply_design_point,
    cleanup_pipeline_spec,
)
from repro.dse.engine import ExplorationPolicy
from repro.dse.incremental import post_prefix_band
from repro.dse.pareto import ParetoPoint
from repro.dse.runtime.checkpoint import CheckpointStore, ExplorerState
from repro.dse.runtime.config import SweepConfig
from repro.dse.runtime.records import EvaluationRecord
from repro.dse.runtime.worker import KernelContext, create_backend
from repro.dse.space import KernelDesignSpace
from repro.estimation.platform import Platform, XC7Z020
from repro.ir.module import ModuleOp
from repro.transforms.composite import knobs_not_applied, plan_design_point


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
    import hashlib

    from repro.dse.apply import kernel_pipeline_signature

    parts = [space.fingerprint(), kernel_pipeline_signature()]
    if not space.platforms:
        parts.append(platform.config_hash())
    if not space.ir_digest:
        from repro.dse.space import ir_digest

        parts.append(ir_digest(func_op))
    combined = ":".join(parts)
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()[:20]


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
    """

    def __init__(self, module: ModuleOp, func_name: Optional[str]):
        self._module = module
        self._func_name = func_name
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
                self._module, point, self._func_name)
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
    #: Key of the structurally identical kernel explored before this one in
    #: the same sweep (None for a representative or a lone kernel), and how
    #: many of ``cache_hits`` were estimates that kernel class stored during
    #: this run rather than ones a persistent cache already held.
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
        from repro.dse.engine import ExplorationPolicy

        return ExplorationPolicy.frontier_of(self._records_for(name))

    def frontier_records_for(self, name: str) -> list[EvaluationRecord]:
        records = self._records_for(name)
        return [records[point.encoded] for point in self.frontier_for(name)]

    def best_record_for(self, name: str) -> Optional[EvaluationRecord]:
        """Finalized design of one platform of the sweep (step 5 per target)."""
        from repro.dse.engine import ExplorationPolicy

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


class ParallelExplorer:
    """Batch-synchronous, cache-aware, checkpointable DSE coordinator."""

    def __init__(self, platform: Platform = XC7Z020,
                 config: SweepConfig = SweepConfig(), *,
                 checkpoint_path: Optional[str] = None,
                 max_evaluations: Optional[int] = None,
                 stop_event: Optional[threading.Event] = None):
        self.platform = platform
        self.config = config
        self.checkpoint_path = checkpoint_path
        #: Hard cap on points processed this run; not part of the
        #: trajectory, so a capped run checkpoints a resumable prefix of the
        #: uncapped one.
        self.max_evaluations = max_evaluations
        #: Cooperative-stop flag shared with an owning scheduler (checked by
        #: the supervisor between outcomes).
        self.stop_event = stop_event

    # -- exploration ------------------------------------------------------------------------

    def explore(self, module: ModuleOp,
                space: Optional[KernelDesignSpace] = None,
                func_name: Optional[str] = None,
                resume: bool = False,
                backend=None, context_key: str = "kernel",
                fingerprint: Optional[str] = None,
                shared_with: Optional[str] = None,
                known_before: frozenset = frozenset()) -> ParallelDSEResult:
        """Explore ``module``'s kernel; optionally resume from a checkpoint.

        ``backend``/``context_key`` let a scheduler inject a shared worker
        pool; when omitted the explorer creates (and owns) its own backend.
        A scheduler also passes the ``fingerprint`` it grouped the kernel
        by and, for a kernel structurally identical to one it explored
        earlier in the sweep, that representative's key as ``shared_with``
        plus the cache keys that pre-dated the sweep (``known_before``):
        a hit outside them is an estimate the representative stored, and is
        reported as shared rather than as a persistent-cache hit.
        """
        started = time.perf_counter()
        sweep, cache = self.config, self.config.cache
        func_op = module.lookup(func_name) if func_name else module.functions()[0]
        if space is None:
            space = KernelDesignSpace.from_function(
                func_op, platforms=sweep.platforms or None)
        if fingerprint is None:
            fingerprint = _kernel_fingerprint(space, func_op, self.platform)

        # The parameters that define the exploration trajectory: a checkpoint
        # taken under different ones must not be resumed (it would continue
        # the *old* trajectory mislabeled as the new configuration).  The
        # pipeline signature guards the *meaning* of every recorded QoR the
        # same way.
        from repro.dse.apply import kernel_pipeline_signature

        config = {"seed": sweep.seed, "batch_size": sweep.batch_size,
                  "num_samples": sweep.num_samples,
                  "max_iterations": sweep.max_iterations,
                  "pipeline": kernel_pipeline_signature()}
        # The hardware model(s) the recorded QoRs are valid under: a
        # checkpoint taken against a different platform config (even one
        # merely renamed or re-clocked) must not be resumed.
        if space.platforms:
            # Lists, not tuples: the config must survive the checkpoint's
            # JSON round-trip and still compare equal on load.
            config["platforms"] = [[platform.name, platform.config_hash()]
                                   for platform in space.platforms]
        else:
            config["platform"] = self.platform.config_hash()
        store = CheckpointStore(self.checkpoint_path) if self.checkpoint_path else None
        # A finished trajectory is kept by a persistent cache that never
        # evicts instead of a final checkpoint: it holds every record, so
        # --resume replays the trajectory without evaluating.
        retires = (store is not None and cache is not None
                   and bool(cache.path) and cache.max_bytes is None)
        state: Optional[ExplorerState] = None
        if resume and store is not None:
            state = store.load(expected_fingerprint=fingerprint,
                               expected_config=config)
            if state is not None and retires:
                # Records a checkpoint brought in must be in the cache too
                # (no-ops when the cache already holds them).
                for record in state.records.values():
                    cache.put(fingerprint, record)
        if state is None:
            state = ExplorerState.fresh(fingerprint, sweep.seed, config=config)

        # The backend is created lazily: a fully cache-warm run never needs
        # worker processes at all.
        injected_backend = backend
        created_backend = None

        def get_backend():
            nonlocal created_backend
            if injected_backend is not None:
                return injected_backend
            if created_backend is None:
                contexts = {context_key: KernelContext(
                    module=module, func_name=func_name,
                    platform=self.platform, space=space,
                    pipeline=config["pipeline"])}
                created_backend = create_backend(contexts, sweep,
                                                 self.stop_event)
            return created_backend

        evaluated_this_run = 0
        processed_this_run = 0
        since_checkpoint = 0
        run_hits = 0
        run_misses = 0
        shared_hits = 0

        obs_on = obs.active() is not None

        classes = _ClassResults()
        programs = _ProgramIdentities(module, func_name)

        def dispatch(encodings: list[tuple[int, ...]], identities: dict,
                     fresh: dict[tuple[int, ...], EvaluationRecord]) -> None:
            if encodings:
                for record in get_backend().evaluate(context_key, encodings):
                    fresh[record.encoded] = classes.add(
                        record, identities[record.encoded])

        def evaluate_batch(batch: list[tuple[int, ...]]) -> None:
            nonlocal evaluated_this_run, processed_this_run, since_checkpoint
            nonlocal run_hits, run_misses, shared_hits
            resolved_before = (classes.siblings, classes.aliases)
            batch_span = obs.NULL_SPAN if not obs_on else obs.span(
                "dse.batch", kernel=context_key, points=len(batch))
            with batch_span:
                missing: list[tuple[int, ...]] = []
                for encoded in batch:
                    record = (cache.get(fingerprint, encoded)
                              if cache is not None else None)
                    if record is not None:
                        state.records[encoded] = record
                        if shared_with is not None \
                                and (fingerprint, encoded) not in known_before:
                            shared_hits += 1
                    else:
                        missing.append(encoded)
                batch_span.set(cached=len(batch) - len(missing))

                points = {encoded: space.decode(encoded) for encoded in missing}
                # One span per batch whatever it builds, so the trace
                # skeleton stays the trajectory's.
                staged_before = len(programs)
                identity_span = obs.NULL_SPAN if not obs_on else obs.span(
                    "dse.identity", kernel=context_key)
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
                    if sweep.faults is not None \
                            and sweep.faults.matches(context_key, encoded):
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
                obs.series(f"dse.frontier.size.{context_key}",
                           state.iterations_done, len(frontier))
                obs.series(f"dse.frontier.hv.{context_key}",
                           state.iterations_done,
                           frontier_hypervolume(frontier))

        def maybe_checkpoint(rng, force: bool = False) -> None:
            nonlocal since_checkpoint
            if store is None:
                return
            if not force and since_checkpoint < sweep.checkpoint_every:
                return
            state.capture_rng(rng)
            store.save(state)
            since_checkpoint = 0

        def budget_left() -> bool:
            return (self.max_evaluations is None
                    or processed_this_run < self.max_evaluations)

        # A consistent batch-boundary snapshot for interrupt checkpointing:
        # mid-batch state (an advanced RNG plus a partially merged batch)
        # must never reach disk — resuming it would diverge from the
        # uninterrupted trajectory.  Taken after every fully merged batch
        # and what a Ctrl-C checkpoint saves; the records are insertion-
        # ordered and no key is assigned twice, so their count is enough.
        boundary = None

        def mark_boundary(rng) -> None:
            nonlocal boundary
            boundary = (len(state.records), state.samples_done,
                        state.iterations_done, rng.getstate())

        def checkpoint_boundary() -> None:
            if store is None or boundary is None:
                return
            count, state.samples_done, state.iterations_done, \
                state.rng_state = boundary
            state.records = dict(list(state.records.items())[:count])
            store.save(state)

        explore_span = obs.NULL_SPAN if not obs_on else obs.span(
            "dse.explore", kernel=context_key, jobs=sweep.jobs,
            batch_size=sweep.batch_size, seed=sweep.seed)
        if shared_with is not None:
            # Args only: the span itself exists for every kernel, so the
            # trace skeleton does not depend on which kernels repeat.
            explore_span.set(shared_with=shared_with)
        try:
            with obs.track(f"dse:{context_key}"), explore_span:
                rng = state.make_rng()
                mark_boundary(rng)

                # Step 1: initial sampling (skipped entirely when resuming
                # past it).
                if not state.samples_done:
                    batch = ExplorationPolicy.initial_batch(
                        space, rng, sweep.num_samples)
                    evaluate_batch([e for e in batch
                                    if e not in state.records])
                    state.samples_done = True
                    mark_boundary(rng)
                    maybe_checkpoint(rng)

                frontier = ExplorationPolicy.frontier_of(state.records)
                record_frontier(frontier)

                # Steps 2-4: batched frontier evolution.
                while (state.iterations_done < sweep.max_iterations and frontier
                       and budget_left()):
                    remaining = sweep.max_iterations - state.iterations_done
                    batch = ExplorationPolicy.propose_batch(
                        frontier, space, state.records, rng,
                        batch_size=min(sweep.batch_size, remaining))
                    if not batch:
                        break
                    evaluate_batch(batch)
                    state.iterations_done += len(batch)
                    mark_boundary(rng)
                    frontier = ExplorationPolicy.frontier_of(state.records)
                    record_frontier(frontier)
                    maybe_checkpoint(rng)

                if retires and budget_left():
                    # Finished, neither capped nor interrupted: make the
                    # cache lines durable, then drop the checkpoint (a crash
                    # in between leaves a loadable one).
                    cache.sync()
                    store.remove()
                    if obs_on:
                        obs.counter("dse.checkpoint.retired")
                else:
                    maybe_checkpoint(rng, force=True)

                # Step 5: finalization.
                best = ExplorationPolicy.finalize(frontier, state.records,
                                                  self.platform)
                if obs_on:
                    obs.gauge(f"dse.node.{context_key}.iterations_done",
                              state.iterations_done)
                    obs.gauge(f"dse.node.{context_key}.iterations_budget",
                              sweep.max_iterations)
                    obs.gauge(f"dse.node.{context_key}.samples_budget",
                              sweep.num_samples)
                    if shared_with is not None:
                        obs.counter("dse.shared.nodes")
                        obs.counter("dse.shared.points", shared_hits)
        except KeyboardInterrupt:
            # Graceful interruption: persist the last completed batch
            # boundary so --resume continues the exact trajectory, then let
            # the interrupt propagate to the caller (the driver turns it
            # into a one-line resume hint).
            checkpoint_boundary()
            raise
        finally:
            if created_backend is not None:
                created_backend.close()

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
            platform=self.platform,
            iterations_done=state.iterations_done,
            shared_with=shared_with,
            shared_hits=shared_hits,
            resolved_siblings=classes.siblings,
            resolved_aliases=classes.aliases,
        )

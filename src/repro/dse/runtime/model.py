"""Whole-model design-space exploration: the paper's end-to-end DNN flow.

The headline claim of ScaleHLS is that HLS DSE scales from single kernels to
whole DNN models.  :class:`ModelScheduler` reproduces that flow on top of
the parallel runtime:

1. **Graph staging** — the model module goes through the graph-level stages
   of :func:`repro.pipeline.compile_dnn` (``legalize-dataflow`` +
   ``split-function``), producing one function per dataflow node, then
   ``lower-graph-to-loops``.
2. **Node splitting** — every explorable dataflow node is moved (not
   cloned) into its *own* single-function module, so the worker-pool
   payload holds one small module per node instead of one whole-model copy
   per node.
3. **Budgeted sweep** — one :class:`~repro.dse.runtime.scheduler.KernelTask`
   per node runs on one shared process pool; the :class:`NodeBudgetPolicy`
   gives light stages proportionally smaller exploration budgets (a node's
   budget depends only on its own FLOPs, so the trajectory stays
   deterministic for any worker count).
4. **Frontier composition** — per-node Pareto frontiers compose into a
   model-level latency/resource frontier: along the dataflow chain the
   model latency is the **sum** of the chosen stage latencies, the dataflow
   initiation interval is the **max** stage latency (the slowest stage
   bounds throughput), and resources **sum** (each stage is its own
   hardware).  After each node is merged the combined set is pruned back to
   its Pareto frontier, so composition stays polynomial instead of taking
   the full cartesian product; only the final frontier's points are built.

Determinism contract: a fixed ``(seed, budgets, batch_size)`` produces a
byte-identical :meth:`ModelDSEResult.frontier_json` for any ``--jobs`` and
across ``--resume`` from any checkpoint (or a rerun against its persistent
estimate cache), because every per-node trajectory
is deterministic (PR 1's contract) and composition is a pure function of
the per-node frontiers.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from typing import Optional, Union

from repro import obs
from repro.dse.runtime.config import SweepConfig
from repro.dse.runtime.parallel import ParallelDSEResult
from repro.dse.runtime.scheduler import KernelTask, MultiKernelScheduler
from repro.dse.space import KernelDesignSpace
from repro.estimation.platform import Platform, VU9P_SLR
from repro.estimation.resources import ResourceUsage
from repro.ir.module import ModuleOp


@dataclasses.dataclass(frozen=True)
class NodeBudgetPolicy:
    """How much of the sweep's budget each dataflow node is allotted.

    ``mode="flops"`` scales the budgets by ``sqrt(node_flops / heaviest)``
    — light stages need proportionally less parallelism to keep up with the
    heaviest stage, so spending the same budget on them buys nothing (the
    same balancing argument the DNN flow uses for unroll factors).
    ``mode="uniform"`` gives every node the full budget.
    """

    mode: str = "flops"
    min_samples: int = 2
    min_iterations: int = 2

    def budget_for(self, num_samples: int, max_iterations: int,
                   node_flops: int, heaviest_flops: int) -> tuple[int, int]:
        """The share of ``(num_samples, max_iterations)`` — the heaviest
        node's budget — that a node of ``node_flops`` work gets."""
        if self.mode not in ("flops", "uniform"):
            raise ValueError(f"unknown budget mode {self.mode!r}; "
                             f"expected 'flops' or 'uniform'")
        if self.mode == "uniform" or heaviest_flops <= 0:
            return num_samples, max_iterations
        share = math.sqrt(max(1, node_flops) / heaviest_flops)
        return (max(self.min_samples, int(round(num_samples * share))),
                max(self.min_iterations, int(round(max_iterations * share))))


@dataclasses.dataclass(frozen=True)
class ModelFrontierPoint:
    """One point of the composed model-level frontier."""

    #: Sum of the chosen stage latencies along the dataflow chain.
    latency: int
    #: Dataflow initiation interval: the slowest chosen stage.
    interval: int
    #: Summed resources of every stage's hardware.
    resources: ResourceUsage
    #: ``(node name, encoded design point)`` per node, in dataflow order.
    choices: tuple[tuple[str, tuple[int, ...]], ...]

    def to_json_dict(self) -> dict:
        return {
            "latency": self.latency,
            "interval": self.interval,
            "dsp": self.resources.dsp,
            "lut": self.resources.lut,
            "memory_bits": self.resources.memory_bits,
            "bram18k": self.resources.bram18k,
            "choices": {name: list(encoded) for name, encoded in self.choices},
        }


def compose_model_frontier(node_order: list[str],
                           node_results: dict[str, ParallelDSEResult],
                           frontier_cap: int = 64,
                           platform: Optional[str] = None
                           ) -> tuple[list[ModelFrontierPoint], int]:
    """Compose per-node frontiers into the model frontier.

    Nodes are merged one at a time in dataflow order; after each merge the
    combined set is pruned to its (latency, DSP) Pareto frontier, with ties
    broken by the flattened choice vector so the result is a pure function
    of the per-node frontiers.  A combination is carried as its sums and a
    link to the choices it shares with the combinations it was built from;
    a merge groups the (combination, option) pairs by their (latency, DSP)
    and keeps, per group that survives the pruning and the cap, its first
    pair by choice vector (flattened only when a surviving group holds more
    than one pair).  A node with one option only shifts the frontier.
    Points are built for the final frontier alone.  ``frontier_cap``
    bounds the working set by downsampling evenly across the sorted
    frontier — both extremes (the fastest design *and* the cheapest) always
    survive, so a tight resource budget can still find a fitting point
    after truncation.  The number of
    dropped points is returned so callers can report the truncation instead
    of silently under-covering.

    With ``platform`` (a platform name of a multi-platform sweep), each
    node contributes its per-platform frontier instead — composing the
    model frontier *as if built for that target alone*.
    """
    if not node_order:
        return [], 0  # nothing explored -> no frontier, not a zero point
    # A combination is (latency, dsp, lut, ff, memory_bits, bram18k,
    # interval, choice): its sums, its slowest stage and the last node's
    # _Choice, which links to the choices before it.
    combos: list[tuple] = [(0, 0, 0, 0, 0, 0, 0, _Choice(None, None, ()))]
    truncated = 0
    for name in node_order:
        if platform is None:
            records = node_results[name].frontier_records()
        else:
            records = node_results[name].frontier_records_for(platform)
        if not records:
            continue  # a platform no surviving record targets: skip the node
        # An option is a record's (latency, dsp, lut, ff, memory_bits,
        # bram18k, (name, encoded)).
        options = []
        for record in records:
            qor, resources = record.qor, record.qor.resources
            options.append((qor.latency, resources.dsp, resources.lut,
                            resources.ff, resources.memory_bits,
                            resources.bram18k, (name, tuple(record.encoded))))
        if len(options) == 1:
            # The combinations are a Pareto frontier, strictly ascending in
            # latency and descending in DSP; one option shifts them all.
            survivors = [(combo, options[0], None) for combo in combos]
        else:
            survivors = _pareto_merge(combos, options)
        if frontier_cap and len(survivors) > frontier_cap:
            truncated += len(survivors) - frontier_cap
            survivors = _downsample(survivors, frontier_cap)
        combos = [
            (latency + option[0], dsp + option[1], lut + option[2],
             ff + option[3], memory_bits + option[4], bram18k + option[5],
             max(interval, option[0]),
             _Choice(choice, option[6], flat))
            for (latency, dsp, lut, ff, memory_bits, bram18k, interval,
                 choice), option, flat in survivors
        ]
    return [
        ModelFrontierPoint(
            latency=latency, interval=interval,
            resources=ResourceUsage(dsp=dsp, lut=lut, ff=ff,
                                    memory_bits=memory_bits, bram18k=bram18k),
            choices=choice.chain())
        for latency, dsp, lut, ff, memory_bits, bram18k, interval, choice
        in combos], truncated


def _pareto_merge(combos: list[tuple], options: list[tuple]) -> list[tuple]:
    """``(combo, option, flat)`` per Pareto point of every combination
    extended by every option, by ascending latency: the first pair by flat
    choice vector of each surviving (latency, DSP) group, with its vector
    (None when the group holds one pair)."""
    groups: dict[tuple[int, int], list] = {}
    for combo in combos:
        latency, dsp = combo[0], combo[1]
        for option in options:
            key = (latency + option[0], dsp + option[1])
            tied = groups.get(key)
            if tied is None:
                groups[key] = [(combo, option)]
            else:
                tied.append((combo, option))
    survivors = []
    best_dsp = None
    for key in sorted(groups):
        if best_dsp is None or key[1] < best_dsp:
            best_dsp = key[1]
            tied = groups[key]
            if len(tied) == 1:
                survivors.append((*tied[0], None))
            else:
                survivors.append(min(
                    ((combo, option, combo[7].flat() + option[6][1])
                     for combo, option in tied),
                    key=lambda survivor: survivor[2]))
    return survivors


class _Choice:
    """One node's ``(name, encoded)`` choice on top of the choices made
    before it.

    Every combination built on a choice shares it, so a merge adds one link
    per surviving combination instead of copying its choices.  ``flat()``,
    the tie-break key (every chosen index, in dataflow order), is built on
    first use from the nearest earlier link that has one, and kept.
    """

    __slots__ = ("before", "choice", "_flat")

    def __init__(self, before: Optional["_Choice"],
                 choice: Optional[tuple[str, tuple[int, ...]]],
                 flat: Optional[tuple[int, ...]] = None):
        self.before = before
        self.choice = choice
        self._flat = flat

    def flat(self) -> tuple[int, ...]:
        if self._flat is None:
            parts = []
            link = self
            while link._flat is None:
                parts.append(link.choice[1])
                link = link.before
            parts.append(link._flat)
            self._flat = tuple(itertools.chain.from_iterable(reversed(parts)))
        return self._flat

    def chain(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Every choice, in dataflow order."""
        choices = []
        link = self
        while link.before is not None:
            choices.append(link.choice)
            link = link.before
        return tuple(reversed(choices))


def _downsample(points: list, cap: int) -> list:
    """Keep ``cap`` evenly spaced points of a latency-sorted frontier.

    Index 0 (lowest latency) and the last index (lowest resources) are
    always kept: dropping either end would bias later merges — and the
    final ``best_point()`` selection — towards one side of the trade-off.
    """
    if cap <= 1:
        return [points[-1]]  # the cheapest design always fits best
    last = len(points) - 1
    indices = sorted({round(i * last / (cap - 1)) for i in range(cap)})
    return [points[i] for i in indices]


def _flat_choices(point: ModelFrontierPoint) -> tuple[int, ...]:
    """Deterministic tie-break key: every chosen index, in dataflow order."""
    flat: list[int] = []
    for _, encoded in point.choices:
        flat.extend(encoded)
    return tuple(flat)


@dataclasses.dataclass
class ModelDSEResult:
    """Outcome of one whole-model sweep."""

    model: str
    platform: Platform
    graph_level: int
    seed: int
    #: Explored nodes, in dataflow order.
    node_order: list[str]
    #: Nodes without an affine loop nest (nothing to explore).
    skipped: list[str]
    node_results: dict[str, ParallelDSEResult]
    frontier: list[ModelFrontierPoint]
    #: Composition points dropped by the frontier cap (0 = exact frontier).
    truncated: int
    #: Frontier-building records that the persistent cache already held
    #: *before* this run (0 when no cache is configured or the cache was
    #: cold).  Distinct from the sweep's own ``cache_hits``: it makes a warm
    #: cache visible even when checkpoints restored the whole trajectory
    #: without dispatching a single evaluation, while a cold run — whose
    #: records were only just stored — correctly reports 0.
    frontier_cache_hits: int
    wall_seconds: float
    #: Per-platform composed frontiers of a multi-platform sweep, keyed by
    #: platform name; empty for single-platform runs (whose artifact layout
    #: must stay byte-identical to before platforms existed).
    platform_frontiers: dict = dataclasses.field(default_factory=dict)

    @property
    def num_evaluations(self) -> int:
        return sum(result.num_evaluations for result in self.node_results.values())

    @property
    def evaluated_this_run(self) -> int:
        return sum(result.evaluated_this_run for result in self.node_results.values())

    @property
    def cache_hits(self) -> int:
        return sum(result.cache_hits for result in self.node_results.values())

    @property
    def cache_misses(self) -> int:
        return sum(result.cache_misses for result in self.node_results.values())

    @property
    def shared_nodes(self) -> int:
        """Nodes whose result copies a structurally identical node's."""
        return sum(1 for result in self.node_results.values()
                   if result.shared_with is not None)

    @property
    def shared_points(self) -> int:
        """Evaluations their representatives made this run (counted
        inside ``cache_hits``, which is every point served)."""
        return sum(result.shared_hits for result in self.node_results.values())

    def best_point(self) -> Optional[ModelFrontierPoint]:
        """Fastest frontier point fitting the platform (smallest otherwise)."""
        if not self.frontier:
            return None
        for point in self.frontier:
            if self.platform.fits(point.resources, memory_margin=float("inf")):
                return point
        return min(self.frontier,
                   key=lambda p: (p.resources.dsp, _flat_choices(p)))

    # -- reporting --------------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Deterministic JSON payload (no wall-clock, no float jitter)."""
        data = {
            "model": self.model,
            "platform": self.platform.name,
            "graph_level": self.graph_level,
            "seed": self.seed,
            "node_order": list(self.node_order),
            "skipped": list(self.skipped),
            "truncated": self.truncated,
            "nodes": {
                name: {
                    "fingerprint": result.fingerprint,
                    "num_evaluations": result.num_evaluations,
                    "frontier": [
                        {"encoded": list(record.encoded),
                         "latency": record.qor.latency,
                         "dsp": record.qor.dsp,
                         "pipeline": record.point.pipeline}
                        for record in result.frontier_records()
                    ],
                    # Quarantine outcomes are part of the deterministic
                    # artifact: a faulty run must report the same exclusions
                    # at any --jobs and across --resume.
                    "quarantined": [list(record.encoded)
                                    for record in result.quarantined_records()],
                }
                for name, result in self.node_results.items()
            },
            "frontier": [point.to_json_dict() for point in self.frontier],
        }
        if self.platform_frontiers:
            data["platform_frontiers"] = {
                name: [point.to_json_dict() for point in frontier]
                for name, frontier in self.platform_frontiers.items()
            }
        return data

    def frontier_json(self) -> str:
        """Canonical (byte-stable) JSON rendering of the sweep outcome:
        ``json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\\n"``."""
        return _canonical_json(self.to_json_dict())


#: The element types of a list the writer renders as a list of ints (bool,
#: an int subclass, renders differently).
_INT = frozenset((int,))


def _canonical_json(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2) + "\\n"`` for a tree of
    string-keyed dicts, lists and scalars.

    ``json.dumps`` with an indent runs the pure-Python encoder token by
    token.  A model frontier repeats the same node names and per-node
    encodings in every point, so each key is quoted once, and each
    (key, list of ints) entry of a dict is rendered once per indent and
    reused.  Ints are written with ``str``, other scalars by ``json.dumps``.
    """
    parts: list[str] = []
    quoted: dict[str, str] = {}
    #: Per indent: ``(key, *ints)`` -> the rendered entry.
    entries: dict[str, dict[tuple, str]] = {}

    def quote(key: str) -> str:
        text = quoted.get(key)
        if text is None:
            text = quoted[key] = json.dumps(key) + ": "
        return text

    def write(value, indent: str) -> None:
        inner = indent + "  "
        if isinstance(value, dict):
            if not value:
                parts.append("{}")
                return
            rendered = entries.setdefault(inner, {})
            opening = "{\n" + inner
            for key in sorted(value):
                item = value[key]
                if type(item) is int:
                    parts.append(opening + quote(key) + str(item))
                elif isinstance(item, (list, tuple)) and item \
                        and _INT.issuperset(map(type, item)):
                    memo = (key, *item)
                    text = rendered.get(memo)
                    if text is None:
                        deeper = inner + "  "
                        text = rendered[memo] = (
                            quote(key) + "[\n" + deeper
                            + (",\n" + deeper).join(map(str, item))
                            + "\n" + inner + "]")
                    parts.append(opening + text)
                else:
                    parts.append(opening + quote(key))
                    write(item, inner)
                opening = ",\n" + inner
            parts.append("\n" + indent + "}")
        elif not isinstance(value, (list, tuple)):
            parts.append(str(value) if type(value) is int else json.dumps(value))
        elif not value:
            parts.append("[]")
        else:
            opening = "[\n" + inner
            for item in value:
                parts.append(opening)
                write(item, inner)
                opening = ",\n" + inner
            parts.append("\n" + indent + "]")

    write(data, "")
    parts.append("\n")
    return "".join(parts)


class ModelScheduler:
    """Drives the ``compile_dnn`` stages through the multi-kernel DSE."""

    def __init__(self, platform: Platform = VU9P_SLR,
                 config: SweepConfig = SweepConfig(), *,
                 budget: NodeBudgetPolicy = NodeBudgetPolicy(),
                 checkpoint_dir: Optional[str] = None,
                 frontier_cap: int = 64,
                 max_evaluations_per_node: Optional[int] = None):
        self.platform = platform
        #: The sweep's settings; ``num_samples`` and ``max_iterations`` are
        #: the heaviest node's, of which ``budget`` gives the others a share.
        self.config = config
        self.budget = budget
        self.checkpoint_dir = checkpoint_dir
        self.frontier_cap = frontier_cap
        #: Bounds every node's sweep to N evaluations this run (simulating
        #: an interruption or spreading a sweep over sessions); the capped
        #: prefix checkpoints exactly like an interrupted run.
        self.max_evaluations_per_node = max_evaluations_per_node

    # -- public API -------------------------------------------------------------------------

    def explore(self, model: Union[str, ModuleOp], graph_level: int = 4,
                resume: bool = False,
                max_nodes: Optional[int] = None) -> ModelDSEResult:
        """Sweep a whole model and compose its latency/resource frontier.

        ``model`` is a bundled model name or an un-staged graph-level module
        (it is cloned, never mutated).  ``max_nodes`` truncates the sweep to
        the N heaviest nodes — a smoke-test escape hatch, reported via
        ``skipped`` rather than applied silently.
        """
        from repro.frontend.models import build_model

        started = time.perf_counter()
        if isinstance(model, str):
            model_name, module = model, build_model(model)
        else:
            model_name = model.get_attr("sym_name") or "model"
            module = model.clone()

        config = self.config
        obs_on = obs.active() is not None
        model_span = obs.NULL_SPAN if not obs_on else obs.span(
            "dse.model", model=model_name, graph_level=graph_level,
            jobs=config.jobs, seed=config.seed)
        with model_span:
            tasks, node_order, skipped = self._staged_tasks(module, graph_level,
                                                            max_nodes)
            model_span.set(nodes=len(node_order))
            known_before = frozenset() if config.cache is None \
                else config.cache.known_keys()
            scheduler = MultiKernelScheduler(
                self.platform, config, checkpoint_dir=self.checkpoint_dir)
            node_results = scheduler.explore_kernels(tasks, resume=resume)

            with obs.span("dse.compose", nodes=len(node_order)):
                frontier, truncated = compose_model_frontier(
                    node_order, node_results, frontier_cap=self.frontier_cap)
                platform_frontiers = {}
                for target in config.platforms:
                    per_platform, per_truncated = compose_model_frontier(
                        node_order, node_results,
                        frontier_cap=self.frontier_cap, platform=target.name)
                    platform_frontiers[target.name] = per_platform
                    truncated += per_truncated
            result = ModelDSEResult(
                model=model_name, platform=self.platform,
                graph_level=graph_level,
                seed=config.seed, node_order=node_order, skipped=skipped,
                node_results=node_results, frontier=frontier,
                truncated=truncated,
                frontier_cache_hits=self._revalidate_frontier(
                    node_results, known_before),
                wall_seconds=time.perf_counter() - started,
                platform_frontiers=platform_frontiers)
        if obs_on:
            obs.gauge("dse.jobs", config.jobs)
            obs.gauge("dse.wall_seconds", result.wall_seconds)
        return result

    # -- internals --------------------------------------------------------------------------

    def _revalidate_frontier(self, node_results: dict[str, ParallelDSEResult],
                             known_before: frozenset) -> int:
        """Count frontier-building records the cache held before this run.

        The composed model frontier mixes records restored from checkpoints
        with fresh evaluations; this pass reports how many of them the
        durable estimate store could already vouch for when the run started
        — making cache warmth visible on resumed runs that never dispatch an
        evaluation, while a cold run (which only just stored its records)
        reports 0.  ``known_before`` is the cache's key snapshot taken
        before the sweep evaluated anything.
        """
        if not known_before:
            return 0
        hits = 0
        for result in node_results.values():
            for record in result.frontier_records():
                if (result.fingerprint, tuple(record.encoded)) in known_before:
                    hits += 1
        return hits

    def _staged_tasks(self, module: ModuleOp, graph_level: int,
                      max_nodes: Optional[int]
                      ) -> tuple[list[KernelTask], list[str], list[str]]:
        """Stage and lower ``module`` at ``graph_level``, then split it into
        one task per explorable node.  ``module`` is consumed: the nodes are
        moved out of it."""
        from repro.pipeline import function_flops, prepare_dnn_stages
        from repro.transforms import lower_graph_to_loops

        with obs.span("dse.stage_graph", graph_level=graph_level):
            prepare_dnn_stages(module, graph_level)
            top = module.functions()[0]
            stage_funcs = [func_op for func_op in module.functions()
                           if func_op is not top]
            if not stage_funcs:
                # graph_level 0 leaves a single monolithic function.
                stage_funcs = [top]
            flops = {func_op.get_attr("sym_name"): function_flops(func_op)
                     for func_op in stage_funcs}
            lower_graph_to_loops(module)
        with obs.span("dse.split_nodes") as split_span:
            tasks, node_order, skipped = self._node_tasks(stage_funcs, flops,
                                                          max_nodes)
            split_span.set(nodes=len(node_order))
        return tasks, node_order, skipped

    def _node_tasks(self, stage_funcs, flops: dict[str, int],
                    max_nodes: Optional[int]
                    ) -> tuple[list[KernelTask], list[str], list[str]]:
        """One single-function module + budgeted task per explorable node.

        Explorability and the ``max_nodes`` selection are decided on the
        staged functions; each kept node's function is then moved, not
        cloned, into its own module (nothing reads the staged module after
        the split).
        """
        from repro.dialects.affine_ops import outermost_loops

        candidates = []
        skipped: list[str] = []
        for func_op in stage_funcs:
            name = func_op.get_attr("sym_name")
            if not outermost_loops(func_op):  # no loop nest to explore
                skipped.append(name)
                continue
            candidates.append((name, func_op))
        if max_nodes is not None and len(candidates) > max_nodes:
            # Keep the heaviest nodes (they dominate the model frontier);
            # ties break by name so the selection is deterministic.
            keep = sorted(candidates,
                          key=lambda item: (-flops.get(item[0], 0), item[0]))
            keep_names = {name for name, _ in keep[:max_nodes]}
            skipped.extend(name for name, _ in candidates
                           if name not in keep_names)
            candidates = [item for item in candidates if item[0] in keep_names]

        heaviest = max((flops.get(name, 0) for name, _ in candidates),
                       default=0)
        tasks = []
        for name, func_op in candidates:
            node_module = ModuleOp(name)
            node_module.append(func_op.detach())
            space = KernelDesignSpace.from_function(
                func_op, platforms=self.config.platforms or None)
            num_samples, max_iterations = self.budget.budget_for(
                self.config.num_samples, self.config.max_iterations,
                flops.get(name, 0), heaviest)
            tasks.append(KernelTask(
                key=name, module=node_module, func_name=name, space=space,
                num_samples=num_samples, max_iterations=max_iterations,
                max_evaluations=self.max_evaluations_per_node))
        return tasks, [task.key for task in tasks], skipped

"""The automated DSE engine (paper Section V-E2).

The engine implements the paper's 5-step neighbor-traversing algorithm:

1. **Initial sampling** — random design points are drawn from the space and
   evaluated with the QoR estimator; the initial Pareto frontier is extracted.
2. **Point proposal** — a random point of the current frontier proposes its
   closest unexplored neighbor (one dimension changed by one step).
3. **Point evaluation** — the neighbor is evaluated with the estimator and the
   frontier is updated if it dominates an existing member.
4. **Frontier evolution** — steps 2-3 repeat until no eligible neighbor
   remains or the iteration budget is exhausted.
5. **Design finalization** — the Pareto points are sorted by latency and the
   first one satisfying the platform's resource constraints is selected.

The algorithm's *policy* (how points are sampled, proposed and merged into
the frontier) lives in :class:`ExplorationPolicy` as pure functions of
``(space, frontier, visited, rng)``.  The one driver,
:func:`repro.dse.runtime.scheduler.explore_kernels` (behind
:func:`repro.pipeline.explore_kernel` and the other flows), runs it in
deterministic batches — inline or across worker processes.  Because every proposal depends
only on explorer state (never on evaluation *order*), it visits the same
points and produces the same frontier for a given seed and batch size,
regardless of worker count.  Note the batch size itself is part of the
trajectory: ``batch_size=1`` is the paper's one-neighbour-at-a-time
traversal, and a run with ``batch_size=8`` legitimately explores different
points.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional

from repro.dse.pareto import ParetoPoint, pareto_frontier
from repro.dse.space import KernelDesignSpace
from repro.estimation.platform import Platform


class ExplorationPolicy:
    """Pure step functions of the 5-step algorithm.

    Every method is deterministic given its arguments (including the RNG
    state), and none of them evaluates anything — evaluation is the driver's
    job.  ``visited`` is any container supporting ``in`` over encoded points.
    """

    @staticmethod
    def initial_batch(space: KernelDesignSpace, rng: random.Random,
                      num_samples: int) -> list[tuple[int, ...]]:
        """Step 1: the deduplicated initial random sample, in draw order."""
        target = min(num_samples, space.num_points)
        sampled: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        attempts = 0
        while len(sampled) < target and attempts < 10 * max(1, num_samples):
            encoded = space.random_point(rng)
            if encoded not in seen:
                seen.add(encoded)
                sampled.append(encoded)
            attempts += 1
        return sampled

    @staticmethod
    def propose_batch(frontier: list[ParetoPoint], space: KernelDesignSpace,
                      visited, rng: random.Random,
                      batch_size: int) -> list[tuple[int, ...]]:
        """Steps 2: propose up to ``batch_size`` distinct unexplored neighbors.

        All proposals are made against the *same* frontier (the one computed
        at the last update), so the batch is a pure function of explorer
        state — evaluating its members in any order or degree of parallelism
        cannot change the trajectory.  Each frontier point's neighbours are
        listed once per call and filtered per proposal.
        """
        proposals: list[tuple[int, ...]] = []
        blocked: set[tuple[int, ...]] = set()
        around: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for _ in range(max(1, batch_size)):
            candidates = list(frontier)
            rng.shuffle(candidates)
            pick: Optional[tuple[int, ...]] = None
            for pareto_point in candidates:
                listed = around.get(pareto_point.encoded)
                if listed is None:
                    listed = around[pareto_point.encoded] = space.neighbors(
                        pareto_point.encoded)
                neighbors = [n for n in listed
                             if n not in visited and n not in blocked]
                if neighbors:
                    pick = rng.choice(neighbors)
                    break
            if pick is None:
                break
            proposals.append(pick)
            blocked.add(pick)
        return proposals

    @staticmethod
    def frontier_of(evaluations: Mapping[tuple[int, ...], object]) -> list[ParetoPoint]:
        """Steps 3-4: the Pareto frontier of everything evaluated so far.

        ``evaluations`` maps encoded points to any object exposing a ``qor``
        attribute (:class:`AppliedDesign` or the runtime's slim
        ``EvaluationRecord``).  Items are visited in sorted key order so the
        result is independent of insertion (i.e. evaluation-completion) order.
        Quarantined records (``ok`` is False, no QoR) count as visited but
        never enter the frontier.
        """
        points = [
            ParetoPoint(latency=float(design.qor.latency), area=float(design.qor.dsp),
                        encoded=encoded, payload=design)
            for encoded, design in sorted(evaluations.items())
            if getattr(design, "ok", True)
        ]
        return pareto_frontier(points)

    @staticmethod
    def finalize_rank(qor, encoded: tuple[int, ...],
                      platform: Platform) -> tuple:
        """Where a design of ``qor`` (a QoR estimate or a model frontier
        point) stands in the finalized choice, lowest first: designs fitting
        ``platform`` by (latency, DSP), then the rest by DSP; ties go to the
        lower encoding."""
        if platform.fits(qor.resources, memory_margin=float("inf")):
            return 0, qor.latency, qor.resources.dsp, encoded
        return 1, qor.resources.dsp, encoded

    @staticmethod
    def finalize(evaluations: Mapping[tuple[int, ...], object],
                 platform: Platform):
        """Step 5: the design of :meth:`frontier_of` ``evaluations`` of
        lowest latency fitting the platform or, with none fitting, the
        smallest (:meth:`finalize_rank`); None with none evaluated."""
        best = min(ExplorationPolicy.frontier_of(evaluations), default=None,
                   key=lambda point: ExplorationPolicy.finalize_rank(
                       point.payload.qor, point.encoded, platform))
        return best.payload if best is not None else None

"""Pareto frontier utilities for the latency-area trade-off space."""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence


@dataclasses.dataclass
class ParetoPoint:
    """One evaluated design point in the latency-area plane."""

    latency: float
    area: float
    encoded: tuple[int, ...]
    payload: object = None


def dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """True if ``a`` is at least as good as ``b`` on both axes and better on one."""
    return (a.latency <= b.latency and a.area <= b.area
            and (a.latency < b.latency or a.area < b.area))


def pareto_frontier(points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """The non-dominated subset, sorted by ascending latency.

    Ties in (latency, area) are broken by the encoded design point, so the
    frontier is a pure function of the evaluated *set* — independent of the
    order evaluations completed, which is what lets the parallel DSE runtime
    produce identical frontiers for any worker count.
    """
    candidates = sorted(points, key=lambda p: (p.latency, p.area, p.encoded))
    frontier: list[ParetoPoint] = []
    best_area: Optional[float] = None
    for point in candidates:
        if best_area is None or point.area < best_area:
            frontier.append(point)
            best_area = point.area
    return frontier


def is_pareto_optimal(point: ParetoPoint, others: Sequence[ParetoPoint]) -> bool:
    """True when no other point dominates ``point``."""
    return not any(dominates(other, point) for other in others if other is not point)


def hypervolume(frontier: Sequence[ParetoPoint], reference: tuple[float, float]) -> float:
    """2-D hypervolume (area dominated by the frontier up to a reference point).

    A better frontier dominates a larger area below the reference point:
    the DSE runtime's ``dse.frontier.hv.<kernel>`` convergence series.
    """
    ref_latency, ref_area = reference
    points = [p for p in pareto_frontier(frontier)
              if p.latency <= ref_latency and p.area <= ref_area]
    if not points:
        return 0.0
    # Points are sorted by ascending latency with strictly decreasing area; each
    # contributes a rectangle from its latency to the next point's latency.
    volume = 0.0
    for index, point in enumerate(points):
        next_latency = points[index + 1].latency if index + 1 < len(points) else ref_latency
        volume += max(0.0, next_latency - point.latency) * max(0.0, ref_area - point.area)
    return volume

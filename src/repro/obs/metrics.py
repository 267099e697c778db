"""The metrics registry: counters, gauges, histograms and series.

One :class:`MetricsRegistry` per observability session is the only
aggregate of pass timings (the pass manager keeps none; the per-run record
is the ``pass.<name>`` span), of rewrite-pattern hit/miss counts across
drivers and block scans (one ``GreedyRewriteDriver`` still counts its own
``pattern_stats``) and of estimate-cache accounting (the ``cache.*``
counters; the cache keeps no count of its own).  Beside them sit the DSE
runtime metrics (evaluations per batch, worker busy time, budget
consumption, frontier-evolution series) and the run gauges the scheduler
writes once per sweep.  Uniform naming makes the union exportable as one
JSON document and renderable as one report:

========================  =========  ==============================================
name                      kind       meaning
========================  =========  ==============================================
``pass.seconds.<pass>``   counter    accumulated wall-clock of one registered pass
                                     (``[prefix.<key>/]<name>``, never its options)
``pattern.<name>.hits``   counter    successful pattern applications
``pattern.<name>.misses`` counter    match attempts that applied nothing
``bucket.<op>.hits``      counter    dispatch-bucket applications per op name
``cache.hits`` etc.       counter    estimate-cache hits/misses/stores/loaded/
                                     compacted/recovered_lines
``dse.evaluations``       counter    evaluations dispatched (one per transform class)
``dse.points``            counter    design points processed (incl. cache hits and
                                     checkpoint-served points)
``dse.resolved.siblings`` counter    points answered by a classmate's evaluation
                                     (same transforms, another target II)
``dse.resolved.aliases``  counter    points whose knob values stage to a program
                                     already answered
``dse.identity.seconds``  counter    coordinator time telling programs apart (one
                                     post-prefix build per prefix key + the plans)
``dse.knob.skipped.perm`` counter    uncached points whose permutation the band
                                     does not take (the plan applies the identity)
``dse.knob.skipped.tile`` counter    uncached points whose tile sizes the band
                                     cuts, clamps, lowers or refuses
``unroll.if.taken``       counter    ``affine.if``s full unrolling decided true as it
                                     copied them (the then-branch copied in place)
``unroll.if.dropped``     counter    decided false (the else-branch, or nothing)
``unroll.if.undecided``   counter    copied whole: neither copy nor range decides them
``dse.shared.nodes``      counter    nodes identical to one explored earlier in the run
``dse.shared.points``     counter    evaluations their representatives made this run
``dse.checkpoint.saves``  counter    checkpoint files written (periodic, final, Ctrl-C);
                                     none in a sweep with a persistent cache,
                                     which syncs the cache at those points
``dse.worker.busy_seconds``  counter    summed per-evaluation worker wall-clock
``dse.faults.timeouts``   counter    attempts that blew ``--task-timeout`` (charged)
``dse.faults.crashes``    counter    attempts whose worker process died (charged)
``dse.faults.retries``    counter    charged faults (crashes, timeouts) retried
``dse.faults.quarantined`` counter   points whose evaluation raised or that
                                     exhausted their retries
``dse.pool.respawns``     counter    pool workers replaced (crashed, timed out, or
                                     found dead between tasks)
``dse.pool.kill_errors``  counter    worker kills that raised (the worker is dropped
                                     anyway; the error is also warned)
``dse.batch.points``      histogram  batch-size distribution
``dse.frontier.size.<k>`` series     (iteration, frontier size) per kernel
``dse.frontier.hv.<k>``   series     (iteration, frontier hypervolume) per kernel
``dse.node.<k>.*``        gauge      per-node budget grants and consumption
``dse.wall_seconds``      gauge      wall-clock of the sweep (``explore_kernels``)
``dse.jobs``              gauge      the sweep's worker count
========================  =========  ==============================================

Counters hold floats (pass timings are fractional seconds); every structure
is guarded by one lock so per-kernel coordinator threads can report into a
shared registry.  Exports sort keys, so two registries holding the same
values render byte-identically regardless of insertion order.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Iterable, Mapping, Optional, Union

Number = Union[int, float]


def _jsonable(value: Number) -> Number:
    """Ints stay ints so deterministic counters export without float jitter."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


@dataclasses.dataclass
class Histogram:
    """Summary statistics of one observed distribution."""

    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_json_dict(self) -> dict:
        return {"count": self.count, "total": _jsonable(self.total),
                "min": _jsonable(self.min) if self.min is not None else None,
                "max": _jsonable(self.max) if self.max is not None else None}


class MetricsRegistry:
    """Thread-safe counters, gauges, histograms and (step, value) series."""

    def __init__(self):
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, list[tuple[Number, Number]]] = {}

    # -- recording --------------------------------------------------------------------------

    def counter_add(self, name: str, value: Number = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge_set(self, name: str, value: Number) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: Number) -> None:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.observe(value)

    def series_append(self, name: str, step: Number, value: Number) -> None:
        with self._lock:
            self.series.setdefault(name, []).append((step, value))

    def merge_counters(self, counters: Mapping[str, Number]) -> None:
        """Fold a batch of counter deltas in (one lock acquisition)."""
        with self._lock:
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0) + value

    # -- reading ----------------------------------------------------------------------------

    def counter(self, name: str) -> Number:
        with self._lock:
            return self.counters.get(name, 0)

    def to_json_dict(self) -> dict:
        """A plain-data snapshot, stable under key sorting."""
        with self._lock:
            return {
                "counters": {name: _jsonable(value)
                             for name, value in self.counters.items()},
                "gauges": {name: _jsonable(value)
                           for name, value in self.gauges.items()},
                "histograms": {name: histogram.to_json_dict()
                               for name, histogram in self.histograms.items()},
                "series": {name: [[_jsonable(step), _jsonable(value)]
                                  for step, value in points]
                           for name, points in self.series.items()},
            }


def pattern_counter_deltas(stats: Mapping[str, Iterable[int]],
                           bucket_stats: Mapping[str, Iterable[int]]
                           ) -> dict[str, int]:
    """Rewrite-driver ``pattern_stats``/``bucket_stats`` as counter deltas."""
    deltas: dict[str, int] = {}
    for name, (hits, misses) in stats.items():
        deltas[f"pattern.{name}.hits"] = hits
        deltas[f"pattern.{name}.misses"] = misses
    for name, (hits, misses) in bucket_stats.items():
        deltas[f"bucket.{name}.hits"] = hits
        deltas[f"bucket.{name}.misses"] = misses
    return deltas

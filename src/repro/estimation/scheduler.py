"""ALAP scheduling of straight-line operation lists.

The QoR estimator schedules the operations of each block to obtain the block
latency (critical path under data and memory-order dependences) and the
operation start times used for recurrence-II computation.  Following the
paper, the schedule is computed as-late-as-possible (ALAP); the ASAP times
are computed as well since the difference (the slack) is occasionally useful
to tests and diagnostics.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.estimation.resources import op_latency
from repro.ir.operation import Operation
from repro.ir.value import OpResult


@dataclasses.dataclass
class ScheduleResult:
    """Start times (ASAP and ALAP) and the overall schedule depth."""

    asap: dict[Operation, int]
    alap: dict[Operation, int]
    depth: int

    def slack(self, op: Operation) -> int:
        return self.alap.get(op, 0) - self.asap.get(op, 0)


class ALAPScheduler:
    """Schedules a list of operations with data and extra (memory) edges."""

    def __init__(self, extra_edges: Optional[Sequence[tuple[Operation, Operation]]] = None):
        self.extra_edges = list(extra_edges or [])

    def schedule(self, ops: Sequence[Operation]) -> ScheduleResult:
        ops = list(ops)
        op_set = set(ops)
        predecessors: dict[Operation, list[Operation]] = {op: [] for op in ops}
        successors: dict[Operation, list[Operation]] = {op: [] for op in ops}

        # The edge/latency loops run over every operand of a fully-unrolled
        # pipelined block (hundreds of thousands of edges per estimate), so
        # they read op._operands directly and memoize latency per interned
        # op name instead of calling the property/table helpers per edge.
        for op in ops:
            preds = predecessors[op]
            for use in op._operands:
                operand = use.value
                if isinstance(operand, OpResult):
                    owner = operand.operation
                    if owner in op_set:
                        preds.append(owner)
                        successors[owner].append(op)
        for source, target in self.extra_edges:
            if source in op_set and target in op_set:
                predecessors[target].append(source)
                successors[source].append(target)

        latency = _LatencyMemo()
        asap = self._asap(ops, predecessors, latency)
        depth = 0
        for op in ops:
            finish = asap[op] + latency[op.name]
            if finish > depth:
                depth = finish
        alap = self._alap(ops, successors, depth, latency)
        return ScheduleResult(asap=asap, alap=alap, depth=depth)

    # -- internals ----------------------------------------------------------------------

    @staticmethod
    def _asap(ops: Sequence[Operation],
              predecessors: dict[Operation, list[Operation]],
              latency: Optional["_LatencyMemo"] = None) -> dict[Operation, int]:
        latency = latency if latency is not None else _LatencyMemo()
        times: dict[Operation, int] = {}
        for op in ops:  # ops are in program order, so defs precede uses
            earliest = 0
            for pred in predecessors[op]:
                start = times.get(pred, 0) + latency[pred.name]
                if start > earliest:
                    earliest = start
            times[op] = earliest
        return times

    @staticmethod
    def _alap(ops: Sequence[Operation], successors: dict[Operation, list[Operation]],
              depth: int,
              latency: Optional["_LatencyMemo"] = None) -> dict[Operation, int]:
        latency = latency if latency is not None else _LatencyMemo()
        times: dict[Operation, int] = {}
        for op in reversed(list(ops)):
            own_latency = latency[op.name]
            latest = depth - own_latency
            for succ in successors[op]:
                bound = times.get(succ, depth) - own_latency
                if bound < latest:
                    latest = bound
            times[op] = max(0, latest)
        return times


class _LatencyMemo(dict):
    """Per-schedule ``{op name: latency}`` memo (missing names fill themselves)."""

    def __missing__(self, op_name: str) -> int:
        result = self[op_name] = op_latency(op_name)
        return result

"""The analytical QoR estimator (paper Section V-E1).

Estimates the latency (cycles), initiation interval / throughput interval,
and resource utilization of a directive-level design without invoking a
downstream HLS tool.  The model follows the paper's description:

* every block is scheduled with an ALAP list scheduler under data and memory
  order dependences,
* memory ports are non-shareable resources — the number of physical banks of
  a partitioned array bounds how many accesses per cycle it can serve (reads
  with identical addresses share a port),
* pipelined loops get ``II = max(target II, resource II, recurrence II)`` and
  a latency of ``II * (trip - 1) + depth``,
* perfectly nested loops annotated with ``flatten`` multiply into the trip
  count of the pipelined loop they wrap,
* dataflow functions overlap their stages: the interval is the maximum stage
  latency while the single-frame latency is the sum.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

from repro import obs
from repro.affine.analysis import linearize
from repro.dialects.affine_ops import (
    AccessTable,
    AffineForOp,
    AffineIfOp,
    access_expressions,
    access_is_write,
    access_memref,
    band_dim_map,
    is_affine_access,
)
from repro.dialects.hlscpp import get_func_directive, get_loop_directive
from repro.estimation.platform import Platform, XC7Z020
from repro.estimation.resources import (
    ResourceUsage,
    SHAREABLE_OPS,
    element_bits,
    memory_resource,
    op_characteristics,
    op_latency,
)
from repro.estimation.scheduler import ALAPScheduler
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.types import MemRefType
from repro.ir.value import OpResult, Value

#: Version of the analytical QoR model.  Bump whenever a change makes
#: previously estimated numbers stale (latency formulas, recurrence/resource
#: II rules, operator tables) — persisted estimate caches key on it so old
#: entries are discarded instead of silently poisoning new runs.
#: Version 3: scf.if branches overlap (max instead of sum), pipelined loops
#: report their achieved II through the result instead of writing it into
#: the IR, and the platform's memory ports per bank enter the resource II.
QOR_MODEL_VERSION = 3


@dataclasses.dataclass
class QoRResult:
    """Estimated quality of result of a function or module.

    ``achieved_ii`` is diagnostic metadata (the II of the outermost pipelined
    loop actually reached under resource/recurrence constraints), not part of
    the QoR value: it is excluded from equality so results that round-trip
    through JSON caches — which drop it — still compare equal to fresh ones.
    """

    latency: int
    interval: int
    resources: ResourceUsage
    achieved_ii: Optional[int] = dataclasses.field(default=None, compare=False)

    @property
    def dsp(self) -> int:
        return self.resources.dsp

    @property
    def memory_bits(self) -> int:
        return self.resources.memory_bits

    @property
    def lut(self) -> int:
        return self.resources.lut

    def __repr__(self) -> str:
        return (f"QoRResult(latency={self.latency}, interval={self.interval}, "
                f"dsp={self.resources.dsp}, lut={self.resources.lut}, "
                f"memory_bits={self.resources.memory_bits})")


#: Structured description of a pipelined (possibly flattened) loop nest.
@dataclasses.dataclass
class _PipelineInfo:
    ii: int
    depth: int
    total_trip: int


@dataclasses.dataclass
class _PipelineAnalysis:
    """What a pipelined body costs whatever its target II: schedule depth,
    the II its memory ports and recurrences force, and its op histogram."""

    depth: int
    min_ii: int
    op_counts: dict[str, int]


@dataclasses.dataclass
class _AccessRecord:
    """One memory access of a pipelined body, with precomputed index analysis."""

    op: Operation
    memref: Value
    exprs: Optional[list]
    linear: Optional[tuple]
    is_write: bool
    address_key: tuple


class _PerII:
    """A part of an estimate that depends on the target II of the retargeted
    directive owner: ``close(target_ii)`` is the value the part takes once
    the owner carries that II.  Only the owner and its ancestors are such
    parts; the walk computes every other part once, as a plain value."""

    __slots__ = ("close",)

    def __init__(self, close):
        self.close = close


def _then(combine, *parts):
    """``combine(*parts)``: now when every part is a plain value, else a
    :class:`_PerII` that closes the per-II parts and then combines."""
    if not any(isinstance(part, _PerII) for part in parts):
        return combine(*parts)
    return _PerII(lambda target_ii: combine(*(
        part.close(target_ii) if isinstance(part, _PerII) else part
        for part in parts)))


def _total(latency: int, resources: ResourceUsage, parts) -> tuple[int, ResourceUsage]:
    """Latency and resources of ``parts`` run one after the other."""
    for part in parts:
        latency += part[0]
        resources = resources + part[1]
    return latency, resources


class QoREstimator:
    """Estimates latency, interval and resources of functions and modules.

    The estimator is a pure function of its inputs: the public entry points
    set up per-call state (the module used for callee resolution, a per-call
    function cache, the retargeted directive owner) and tear it down before
    returning, so instances carry no state between calls, can be shared
    across kernels, and remain picklable for shipment to DSE worker
    processes.
    """

    def __init__(self, platform: Platform = XC7Z020):
        self.platform = platform
        self._module: Optional[ModuleOp] = None
        #: (latency, interval, resources) of each function the call in
        #: flight estimated, or a :class:`_PerII` of them.
        self._function_cache: dict[str, object] = {}
        #: The II of the first pipelined loop or function the walk finished
        #: (a :class:`_PerII` when that is the retargeted owner).
        self._achieved_ii = None
        #: Index expressions the caller of the call in flight already holds.
        self._accesses: Optional[AccessTable] = None
        #: The directive owner whose target II the call closes over.
        self._retarget: Optional[Operation] = None

    # -- public API --------------------------------------------------------------------------

    def estimate_module(self, module: ModuleOp, top_name: Optional[str] = None) -> QoRResult:
        """Estimate the top function of ``module`` (callees are resolved and cached)."""
        from repro.dialects.hlscpp import find_top_function

        top = module.lookup(top_name) if top_name else find_top_function(module)
        if top is None:
            raise ValueError("could not determine the top function of the module")
        return self._run(top, module)

    def estimate_function(self, func_op: Operation, module: Optional[ModuleOp] = None,
                          retarget: Optional[Operation] = None,
                          target_iis: Optional[Sequence[int]] = None,
                          accesses: Optional[AccessTable] = None):
        """Estimate a single function (recursively resolving its callees).

        With ``target_iis`` the call closes one walk over several target
        IIs and returns a list, one :class:`QoRResult` per II: each equals
        what a separate call returns once the directive of ``retarget`` — a
        pipelined loop of ``func_op`` or of a function it calls, or
        ``func_op`` itself when the function is pipelined — carries that
        target II.  The target II
        enters the model only through ``max(target, resource, recurrence)``
        of ``retarget``, so the walk computes everything else once and
        leaves ``retarget`` and its ancestors as arithmetic to close per II
        (:class:`_PerII`).

        ``accesses`` is a table an analysis of the same, since unchanged IR
        filled (``array-partition``); what it holds is not derived again.
        """
        return self._run(func_op, module, retarget, target_iis, accesses)

    def _run(self, func_op: Operation, module: Optional[ModuleOp],
             retarget: Optional[Operation] = None,
             target_iis: Optional[Sequence[int]] = None,
             accesses: Optional[AccessTable] = None):
        estimate_span = obs.NULL_SPAN if obs.active() is None else obs.span(
            "estimate", func=func_op.get_attr("sym_name", ""))
        self._module = module
        self._function_cache = {}
        self._accesses = accesses
        if target_iis is not None:
            self._retarget = retarget
        try:
            with estimate_span:
                obs.counter("estimate.calls")
                estimate = self._estimate_function(func_op)
                bound = self._bandwidth_bound(func_op)
                if target_iis is None:
                    return self._result(estimate, None, bound)
                return [self._result(estimate, target_ii, bound)
                        for target_ii in target_iis]
        finally:
            self._module = None
            self._function_cache = {}
            self._achieved_ii = None
            self._accesses = None
            self._retarget = None

    def _result(self, estimate, target_ii, bound: int) -> QoRResult:
        """The walk's ``estimate`` of the top function closed at
        ``target_ii``; results share no :class:`ResourceUsage`."""
        if isinstance(estimate, _PerII):
            latency, interval, resources = estimate.close(target_ii)
        else:
            latency, interval, resources = estimate
            resources = dataclasses.replace(resources)
        achieved_ii = self._achieved_ii
        if isinstance(achieved_ii, _PerII):
            achieved_ii = achieved_ii.close(target_ii)
        if bound:
            interval = max(interval, bound)
            latency = max(latency, bound)
        return QoRResult(latency=latency, interval=interval, resources=resources,
                         achieved_ii=achieved_ii)

    def _bandwidth_bound(self, func_op: Operation) -> int:
        """The floor the off-chip link puts under the top function's
        interval and latency (0: none).

        Every array argument of the top function crosses the off-chip
        boundary once per invocation; with a modeled link of B bytes/cycle,
        no overlap of compute and transfer can push the invocation interval
        (or latency) below ``ceil(total bytes / B)``.  Platforms with an
        unmodeled link (bandwidth 0, the paper targets) are unaffected.
        """
        bandwidth = self.platform.offchip_bandwidth_bytes_per_cycle
        if bandwidth <= 0:
            return 0
        total_bytes = 0
        for argument in func_op.region(0).front.arguments:
            arg_type = argument.type
            if isinstance(arg_type, MemRefType):
                total_bytes += (arg_type.num_elements
                                * element_bits(arg_type.element_type) + 7) // 8
        if total_bytes <= 0:
            return 0
        return math.ceil(total_bytes / bandwidth)

    # -- per-call estimation -----------------------------------------------------------------
    #
    # Each walk function returns its plain value, or a _PerII of it when
    # what it walked encloses the retargeted owner.

    def _estimate_function(self, func_op: Operation):
        """``(latency, interval, resources)`` of ``func_op``."""
        name = func_op.get_attr("sym_name", "")
        if name and name in self._function_cache:
            return self._function_cache[name]

        directive = get_func_directive(func_op)
        body = func_op.region(0).front

        if directive is not None and directive.dataflow:
            result = self._estimate_dataflow_function(func_op)
        elif directive is not None and directive.pipeline:
            result = _then(lambda pipelined: (pipelined[0], pipelined[2].ii,
                                              pipelined[1]),
                           self._estimate_pipelined_body(
                               func_op, directive, body, trip=1,
                               enclosing_loops=[]))
        else:
            result = _then(lambda block: (block[0], block[0], block[1]),
                           self._estimate_block(body))

        if name:
            self._function_cache[name] = result
        return result

    # -- dataflow functions --------------------------------------------------------------------

    def _estimate_dataflow_function(self, func_op: Operation):
        body = func_op.region(0).front
        #: Per stage: (stage latency, latency, resources).
        stages = []
        resources = ResourceUsage()
        for op in body.operations:
            if op.name == "func.call":
                callee = self._estimate_callee(op)
                if callee is None:
                    continue
                stages.append(_then(lambda result: (max(result[0], result[1]),
                                                    result[0], result[2]),
                                    callee))
                resources = resources + self._double_buffer_memory(op)
            elif isinstance(op, AffineForOp):
                stages.append(_then(lambda loop: (loop[0], loop[0], loop[1]),
                                    self._estimate_loop(op)))
            elif op.name == "memref.alloc":
                resources = resources + self._buffer_memory(op)
        return _then(lambda *closed: self._overlapped(closed, resources), *stages)

    @staticmethod
    def _overlapped(stages, resources: ResourceUsage) -> tuple[int, int, ResourceUsage]:
        total_latency = 0
        for _, latency, stage_resources in stages:
            total_latency += latency
            resources = resources + stage_resources
        interval = max((stage[0] for stage in stages), default=total_latency)
        return max(total_latency, 1), max(interval, 1), resources

    def _estimate_callee(self, call_op: Operation):
        if self._module is None:
            return None
        callee = self._module.lookup(call_op.get_attr("callee"))
        if callee is None:
            return None
        return self._estimate_function(callee)

    def _double_buffer_memory(self, call_op: Operation) -> ResourceUsage:
        """Dataflow channels between stages are ping-pong buffered: count the
        callee's returned buffers a second time."""
        if self._module is None:
            return ResourceUsage()
        callee = self._module.lookup(call_op.get_attr("callee"))
        if callee is None:
            return ResourceUsage()
        return_op = None
        for op in reversed(callee.region(0).front.operations):
            if op.name == "func.return":
                return_op = op
                break
        if return_op is None:
            return ResourceUsage()
        extra = ResourceUsage()
        for operand in return_op.operands:
            if isinstance(operand, OpResult) and operand.owner.name == "memref.alloc":
                extra = extra + self._buffer_memory(operand.owner)
        return extra

    # -- blocks -----------------------------------------------------------------------------------

    def _estimate_block(self, block):
        """``(latency, resources)`` of ``block``."""
        latency = 0
        resources = ResourceUsage()
        scalar_ops: list[Operation] = []
        deferred: list[_PerII] = []
        for op in block.operations:
            if isinstance(op, AffineForOp):
                part = self._estimate_loop(op)
            elif isinstance(op, AffineIfOp) or op.name == "scf.if":
                part = self._estimate_branches(op)
            elif op.name == "scf.for":
                part = _then(lambda body, trip=self._scf_trip_count(op):
                             (trip * (body[0] + 1) + 2, body[1]),
                             self._estimate_block(op.body))
            elif op.name == "func.call":
                callee = self._estimate_callee(op)
                if callee is None:
                    continue
                part = _then(lambda result: (result[0], result[2]), callee)
            elif op.name == "memref.alloc":
                resources = resources + self._buffer_memory(op)
                continue
            elif op.name in ("func.return", "affine.yield", "scf.yield"):
                continue
            else:
                scalar_ops.append(op)
                continue
            if isinstance(part, _PerII):
                deferred.append(part)
            else:
                latency, resources = _total(latency, resources, (part,))

        if scalar_ops:
            scalar_records = self._access_records(
                scalar_ops, self._enclosing_loops(scalar_ops[0]))
            schedule = ALAPScheduler(
                self._memory_edges(scalar_records, 0)).schedule(scalar_ops)
            latency += schedule.depth
            resources = resources + self._shared_scalar_resources(scalar_ops)
        return _then(lambda *closed: _total(latency, resources, closed), *deferred)

    def _estimate_branches(self, op: Operation):
        """An ``affine.if`` / ``scf.if``: one branch runs, both are built."""
        then_part = self._estimate_block(op.then_block)
        else_part = (0, ResourceUsage()) if op.else_block is None \
            else self._estimate_block(op.else_block)
        return _then(lambda then, other: (max(then[0], other[0]) + 1,
                                          then[1] + other[1]),
                     then_part, else_part)

    @staticmethod
    def _scf_trip_count(op: Operation) -> int:
        from repro.dialects import arith

        lower = arith.constant_value(op.operand(0))
        upper = arith.constant_value(op.operand(1))
        step = arith.constant_value(op.operand(2))
        if lower is None or upper is None or step is None or step == 0:
            return 1
        return max(0, -(-(int(upper) - int(lower)) // int(step)))

    @staticmethod
    def _shared_scalar_resources(ops: Sequence[Operation]) -> ResourceUsage:
        """Resources of straight-line code outside pipelined loops.

        Operators are reused over time, so each operation *kind* contributes a
        single hardware unit.
        """
        resources = ResourceUsage()
        seen_kinds: set[str] = set()
        for op in ops:
            characteristics = op_characteristics(op.name)
            if op.name in SHAREABLE_OPS:
                if op.name in seen_kinds:
                    continue
                seen_kinds.add(op.name)
            resources = resources + ResourceUsage(
                dsp=characteristics.dsp, lut=characteristics.lut, ff=characteristics.ff)
        return resources

    def _buffer_memory(self, alloc_op: Operation) -> ResourceUsage:
        memref_type: MemRefType = alloc_op.result().type
        return memory_resource(memref_type.num_elements,
                               element_bits(memref_type.element_type),
                               memref_type.num_partitions)

    # -- loops -------------------------------------------------------------------------------------

    def _estimate_loop(self, loop: AffineForOp):
        """``(latency, resources, pipeline info or None)`` of ``loop``."""
        directive = get_loop_directive(loop)
        trip = self._loop_trip(loop)

        if directive is not None and directive.pipeline:
            return self._estimate_pipelined_body(
                loop, directive, loop.body, trip,
                self._enclosing_loops(loop) + [loop])

        body_ops = [op for op in loop.body.operations if op.name != "affine.yield"]
        if len(body_ops) == 1 and isinstance(body_ops[0], AffineForOp):
            flatten = directive is not None and directive.flatten
            return _then(lambda child: self._nest(child, trip, flatten),
                         self._estimate_loop(body_ops[0]))
        return _then(lambda body: (trip * (body[0] + 1) + 2, body[1], None),
                     self._estimate_block(loop.body))

    @staticmethod
    def _nest(child, trip: int, flatten: bool):
        """A loop around the single loop ``child`` estimates."""
        child_latency, child_resources, child_info = child
        if child_info is not None and flatten:
            total_trip = child_info.total_trip * trip
            latency = child_info.ii * max(0, total_trip - 1) + child_info.depth + 1
            info = _PipelineInfo(child_info.ii, child_info.depth, total_trip)
            return latency, child_resources, info
        return trip * (child_latency + 1) + 2, child_resources, None

    def _loop_trip(self, loop: AffineForOp) -> int:
        trip = loop.trip_count()
        if trip is not None:
            return max(trip, 0)
        # Variable bounds: use the average extent over the outer iteration domain
        # (triangular loops like SYRK's j-loop average to roughly half the range).
        return max(1, self._variable_bound_extent(loop))

    def _variable_bound_extent(self, loop: AffineForOp) -> int:
        from repro.affine.analysis import expr_min_max
        from repro.transforms.loop.remove_variable_bound import _operand_range

        try:
            lower = (loop.constant_lower_bound if loop.has_constant_lower_bound()
                     else None)
            upper_expr = loop.upper_map.results[0]
            ranges = []
            for operand in loop.ub_operands:
                operand_range = _operand_range(operand)
                if operand_range is None:
                    obs.counter("estimate.variable_bound_fallbacks")
                    return 1
                ranges.append(operand_range)
            if ranges:
                low, high = expr_min_max(upper_expr, ranges)
            else:
                low = high = upper_expr.evaluate([])
            average_upper = (low + high) / 2.0
            lower = lower if lower is not None else 0
            return int(max(1, round((average_upper - lower) / max(1, loop.step))))
        except (ValueError, TypeError, KeyError, IndexError, AttributeError,
                ArithmeticError):
            # The bound analysis hit a shape it cannot reason about — fall
            # back to a trip estimate of 1, but leave a visible trail.
            obs.counter("estimate.variable_bound_fallbacks")
            return 1

    # -- pipelined regions ----------------------------------------------------------------------------

    def _gather_straightline_ops(self, block) -> list[Operation]:
        """All computational ops of a pipelined body, flattening affine.if regions."""
        ops: list[Operation] = []
        for op in block.operations:
            if op.name in ("affine.yield", "scf.yield", "func.return"):
                continue
            if isinstance(op, AffineIfOp):
                ops.extend(self._gather_straightline_ops(op.then_block))
                if op.else_block is not None:
                    ops.extend(self._gather_straightline_ops(op.else_block))
                continue
            if op.regions:
                for region in op.regions:
                    for nested_block in region.blocks:
                        ops.extend(self._gather_straightline_ops(nested_block))
                continue
            ops.append(op)
        return ops

    def _estimate_pipelined_body(self, owner: Operation, directive, body,
                                 trip: int, enclosing_loops: list[AffineForOp]):
        """``(latency, resources, pipeline info)`` of the body ``owner``'s
        directive pipelines: analysed once, closed at the II it achieves."""
        analysis = self._analyse_pipelined_body(body, enclosing_loops)
        if owner is self._retarget:
            achieved = _PerII(lambda target_ii: max(1, int(target_ii), analysis.min_ii))
        else:
            achieved = max(1, int(directive.target_ii), analysis.min_ii)
        if self._achieved_ii is None:
            self._achieved_ii = achieved
        return _then(lambda ii: self._close_pipeline(analysis, ii, trip), achieved)

    def _close_pipeline(self, analysis: _PipelineAnalysis, ii: int, trip: int
                        ) -> tuple[int, ResourceUsage, _PipelineInfo]:
        latency = ii * max(0, trip - 1) + analysis.depth + 1
        resources = self._pipelined_resources(analysis.op_counts, ii)
        return latency, resources, _PipelineInfo(ii=ii, depth=analysis.depth,
                                                 total_trip=trip)

    def _analyse_pipelined_body(self, body, enclosing_loops: list[AffineForOp]
                                ) -> _PipelineAnalysis:
        ops = self._gather_straightline_ops(body)
        records = self._access_records(ops, enclosing_loops)
        edges = self._memory_edges(records, len(enclosing_loops))
        schedule = ALAPScheduler(edges).schedule(ops)
        op_counts: dict[str, int] = {}
        for op in ops:
            op_counts[op.name] = op_counts.get(op.name, 0) + 1
        return _PipelineAnalysis(
            depth=max(1, schedule.depth),
            min_ii=max(self._resource_ii(records),
                       self._recurrence_ii(records, schedule, enclosing_loops)),
            op_counts=op_counts)

    @staticmethod
    def _enclosing_loops(op: Operation) -> list[AffineForOp]:
        loops = [ancestor for ancestor in op.ancestors() if isinstance(ancestor, AffineForOp)]
        loops.reverse()
        return loops

    # -- memory modelling -------------------------------------------------------------------------------

    def _access_records(self, ops: Sequence[Operation],
                        enclosing_loops: list[AffineForOp]) -> list[_AccessRecord]:
        """One :class:`_AccessRecord` per memory access in ``ops``.

        Index expressions are linearized once here so that the alias, port
        and recurrence analyses below are cheap pairwise comparisons.
        """
        loops = tuple(enclosing_loops)
        dim_map = band_dim_map(loops)
        num_dims = len(loops)
        accesses = self._accesses
        records: list[_AccessRecord] = []
        for op in ops:
            if not is_affine_access(op) and op.name not in ("memref.load", "memref.store"):
                continue
            exprs = access_expressions(op, dim_map) if accesses is None \
                else accesses.expressions(op, loops, dim_map)
            linear = None
            key: tuple
            if exprs is not None:
                linear = []
                for expr in exprs:
                    decomposed = linearize(expr, num_dims)
                    if decomposed is None:
                        linear = None
                        break
                    linear.append((tuple(decomposed[0]), decomposed[1]))
                key = tuple(linear) if linear is not None else ("op", id(op))
            else:
                key = ("op", id(op))
            records.append(_AccessRecord(op=op, memref=access_memref(op), exprs=exprs,
                                         linear=tuple(linear) if linear else None,
                                         is_write=access_is_write(op), address_key=key))
        return records

    @staticmethod
    def _group_by_memref(records: Sequence["_AccessRecord"]) -> dict[int, list]:
        groups: dict[int, list] = {}
        for record in records:
            groups.setdefault(id(record.memref), []).append(record)
        return groups

    def _memory_edges(self, records: Sequence["_AccessRecord"],
                      num_dims: int) -> list[tuple[Operation, Operation]]:
        """Ordering edges between accesses that may touch the same address.

        Accesses are bucketed by their (linearized) address: accesses in the
        same bucket are chained in program order whenever a write is involved,
        which captures accumulation chains without the quadratic cross-check
        of provably distinct addresses.  Accesses whose address could not be
        linearized are conservatively ordered against every other access of
        the same buffer.
        """
        edges: list[tuple[Operation, Operation]] = []
        for group in self._group_by_memref(records).values():
            buckets: dict[tuple, list[_AccessRecord]] = {}
            unknown: list[_AccessRecord] = []
            for record in group:
                if record.linear is None:
                    unknown.append(record)
                else:
                    buckets.setdefault(record.address_key, []).append(record)
            for bucket in buckets.values():
                previous_write = None
                previous_reads: list[_AccessRecord] = []
                for record in bucket:
                    if record.is_write:
                        if previous_write is not None:
                            edges.append((previous_write.op, record.op))
                        for read in previous_reads:
                            edges.append((read.op, record.op))
                        previous_write = record
                        previous_reads = []
                    else:
                        if previous_write is not None:
                            edges.append((previous_write.op, record.op))
                        previous_reads.append(record)
            if unknown:
                for record in unknown:
                    for other in group:
                        if other is record or (not record.is_write and not other.is_write):
                            continue
                        source, target = (other, record)
                        edges.append((source.op, target.op))
        return edges

    def _resource_ii(self, records: Sequence["_AccessRecord"]) -> int:
        """Port-limited II: unique access addresses per cycle per memory port.

        Each physical bank serves ``memory_ports_per_bank`` accesses per
        cycle (1 on the paper targets; 2 on platforms modeling the second
        BRAM port).
        """
        ports_per_bank = max(1, self.platform.memory_ports_per_bank)
        worst = 1
        for group in self._group_by_memref(records).values():
            memref_type = group[0].memref.type
            banks = memref_type.num_partitions if isinstance(memref_type, MemRefType) else 1
            lanes = banks * ports_per_bank
            unique_reads = {record.address_key for record in group if not record.is_write}
            unique_writes = {record.address_key for record in group if record.is_write}
            read_ii = -(-len(unique_reads) // lanes) if unique_reads else 1
            write_ii = -(-len(unique_writes) // lanes) if unique_writes else 1
            worst = max(worst, read_ii, write_ii)
        return worst

    def _recurrence_ii(self, records: Sequence["_AccessRecord"], schedule,
                       enclosing_loops: list[AffineForOp]) -> int:
        """Recurrence-constrained II of a pipelined (possibly flattened) nest."""
        if not enclosing_loops:
            return 1
        num_dims = len(enclosing_loops)

        # Pipeline dims: the pipelined loop itself plus flatten-marked perfect parents.
        pipeline_dims = []
        for position in range(num_dims - 1, -1, -1):
            loop = enclosing_loops[position]
            directive = get_loop_directive(loop)
            if position == num_dims - 1:
                pipeline_dims.append(position)
            elif directive is not None and directive.flatten:
                pipeline_dims.append(position)
            else:
                break
        pipeline_dims = sorted(pipeline_dims)

        strides = self._flattened_strides(enclosing_loops, pipeline_dims)
        steps = [max(1, loop.step) for loop in enclosing_loops]

        worst = 1
        for group in self._group_by_memref(records).values():
            # Collapse accesses with identical addresses: the recurrence chain of a
            # (write address, read address) pair is bounded by the latest write and
            # the earliest read of those addresses.
            writes: dict[tuple, tuple] = {}
            reads: dict[tuple, tuple] = {}
            for record in group:
                if record.is_write:
                    finish = schedule.asap.get(record.op, 0) + op_latency(record.op.name)
                    current = writes.get(record.address_key)
                    if current is None or finish > current[1]:
                        writes[record.address_key] = (record, finish)
                else:
                    start = schedule.asap.get(record.op, 0)
                    current = reads.get(record.address_key)
                    if current is None or start < current[1]:
                        reads[record.address_key] = (record, start)
            for write, write_finish in writes.values():
                for read, read_start in reads.values():
                    if write.address_key == read.address_key:
                        # Same-address read-modify-write (an accumulation): the
                        # model assumes the HLS tool forwards the stored value
                        # through a register and rewrites the reduction into
                        # partial sums, so the chain does not constrain the II.
                        # For floating point this needs unsafe-math-style
                        # reassociation — an optimistic assumption this
                        # estimator makes deliberately (its tests specify that
                        # unrolling a reduction must pay off in latency and
                        # that the target II must remain controllable).  Only
                        # genuinely different addresses (e.g. stencil
                        # neighbors) carry a recurrence.
                        continue
                    distance = self._carried_distance(
                        write, read, num_dims, pipeline_dims, strides, steps)
                    if distance is None or distance <= 0:
                        continue
                    chain = max(1, write_finish - read_start)
                    worst = max(worst, math.ceil(chain / distance))
        return worst

    @staticmethod
    def _flattened_strides(enclosing_loops: list[AffineForOp],
                           pipeline_dims: list[int]) -> dict[int, int]:
        """Iteration-space stride of each pipeline dim in the flattened nest."""
        strides: dict[int, int] = {}
        stride = 1
        for position in sorted(pipeline_dims, reverse=True):
            strides[position] = stride
            trip = enclosing_loops[position].trip_count() or 1
            stride *= max(1, trip)
        return strides

    def _carried_distance(self, write: "_AccessRecord", read: "_AccessRecord",
                          num_dims: int, pipeline_dims: list[int],
                          strides: dict[int, int], steps: list[int]) -> Optional[int]:
        """Flattened iteration distance of the dependence, if carried by the pipeline.

        Distances are measured in loop *iterations*, so index offsets are
        divided by ``coefficient * step`` of the loop they vary with; a
        non-integral quotient means the two accesses never touch the same
        address across iterations of that loop.
        """
        if write.linear is None or read.linear is None:
            return 1
        if len(write.linear) != len(read.linear):
            return 1
        per_dim: dict[int, object] = {d: "free" for d in range(num_dims)}
        referenced: set[int] = set()
        for (coeffs_w, const_w), (coeffs_r, const_r) in zip(write.linear, read.linear):
            if coeffs_w != coeffs_r:
                return 1
            offset = const_w - const_r
            nonzero = [d for d, c in enumerate(coeffs_w) if c != 0]
            referenced.update(nonzero)
            if not nonzero:
                if offset != 0:
                    return None
                continue
            if len(nonzero) == 1:
                d = nonzero[0]
                per_iteration = coeffs_w[d] * steps[d]
                if offset % per_iteration != 0:
                    return None
                distance = abs(offset // per_iteration)
                current = per_dim[d]
                per_dim[d] = distance if current == "free" else max(current, distance)

        # Find the innermost pipeline dim that carries the dependence.
        for position in sorted(pipeline_dims, reverse=True):
            value = per_dim[position]
            if value == "free" and position not in referenced:
                return strides[position]  # same address regardless of this dim
            if value != "free" and value not in (0,):
                return strides[position] * int(value)
        return None

    # -- resources of pipelined bodies ------------------------------------------------------------------

    @staticmethod
    def _pipelined_resources(op_counts: dict[str, int], ii: int) -> ResourceUsage:
        resources = ResourceUsage(lut=32)  # loop control overhead
        for name, count in op_counts.items():
            characteristics = op_characteristics(name)
            if name in SHAREABLE_OPS:
                units = -(-count // max(1, ii))
            else:
                units = count
            resources = resources + ResourceUsage(
                dsp=units * characteristics.dsp,
                lut=units * characteristics.lut,
                ff=units * characteristics.ff,
            )
        return resources

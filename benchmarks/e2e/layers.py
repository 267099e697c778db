"""Benchmark-owned spans around the calls into each layer of ``repro``.

The traced run of the benchmark must not depend on instrumentation inside
the program (a later change may move or delete it), so every span here is
recorded by a wrapper this file installs *from outside* around a layer's
public entry point, and removed again when the traced repetition ends.
Nothing under ``src/`` is edited and ``repro.obs`` stays inactive.

A span is ``[name, start, end, parent, excluded]``; ``excluded`` is time the
benchmark itself spent inside the span counting IR operations, which is
subtracted from every duration so the counts do not distort the timings.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, EXCLUDED = range(5)

#: Cleanup/transform passes whose time and post-pass IR size are reported.
TRACKED_PASSES = (
    "canonicalize0", "design-point-prefix", "design-point-suffix",
    "canonicalize", "simplify-affine-if", "affine-store-forward",
    "simplify-memref-access", "cse", "array-partition",
)


class Tracer:
    """In-memory span recorder; one span list per thread.

    The per-kernel coordinators of a ``jobs > 1`` sweep are threads, so each
    thread nests its own spans and the lists are only merged when read.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []
        #: Operation counts keyed by the span name they were taken for.
        self.ops: dict[str, list[int]] = defaultdict(list)
        #: (kernel key, seconds) per evaluated design point.
        self.evaluations: list[tuple[str, float]] = []
        self.prefix_hits = 0
        self.prefix_misses = 0
        self.context_pickle_bytes = 0

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack, local.excluded = [], [], 0.0
            with self._lock:
                self._threads.append(local.spans)
        return local

    def enter(self, name: str) -> list:
        local = self._state()
        parent = local.stack[-1] if local.stack else None
        span = [name, 0.0, 0.0, parent, local.excluded]
        local.spans.append(span)
        local.stack.append(span)
        span[START] = time.perf_counter()
        return span

    def exit(self, span: list) -> None:
        span[END] = time.perf_counter()
        local = self._local
        local.stack.pop()
        span[EXCLUDED] = local.excluded - span[EXCLUDED]

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.enter(name)
        try:
            yield span
        finally:
            self.exit(span)

    def inside(self, prefix: str) -> bool:
        """Is the calling thread inside a span whose name starts with ``prefix``?"""
        return any(span[NAME].startswith(prefix) for span in self._state().stack)

    @contextlib.contextmanager
    def off_clock(self):
        """Exclude the block from every span the calling thread has open."""
        local = self._state()
        started = time.perf_counter()
        try:
            yield
        finally:
            local.excluded += time.perf_counter() - started

    def count_ops(self, name: str, op) -> None:
        """Record the number of operations nested in ``op``, off the clock."""
        with self.off_clock():
            self.ops[name].append(sum(1 for _ in op.walk()))

    # -- reading ----------------------------------------------------------------------------

    def spans(self) -> list[list]:
        return [span for spans in self._threads for span in spans]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(duration(span) for span in self.spans() if span[NAME] == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans() if span[NAME] == name)

    def mean(self, name: str) -> float:
        calls = self.calls(name)
        return self.total(name) / calls if calls else 0.0

    def top_level(self, root: str) -> dict[str, float]:
        """Summed duration, by name, of the spans directly under ``root``.

        Their sum is every layer's self time under ``root``: a child's
        duration is exactly what its parent's self time leaves out.
        """
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans():
            parent = span[PARENT]
            if parent is not None and parent[NAME] == root:
                totals[span[NAME]] += duration(span)
        return totals


class NullTracer:
    """The untraced path: spans opened by the workloads cost nothing."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


def duration(span: list) -> float:
    return span[END] - span[START] - span[EXCLUDED]


# -- wrappers ---------------------------------------------------------------------------------


def _traced(tracer: Tracer, name, func, after=None):
    """``func`` recorded as a span; ``name`` may be computed from the call."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = tracer.enter(name(*args, **kwargs) if callable(name) else name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit(span)
        if after is not None:
            after(span, result, *args, **kwargs)
        return result

    return wrapper


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    _MISSING = object()

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, self._MISSING)))
        setattr(owner, attr, value)

    def set_function(self, func, wrapper) -> None:
        """Replace a module-level function wherever ``repro`` bound its name.

        ``from x import f`` copies the binding at import time, so patching
        the defining module alone would miss every such caller.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, previous in reversed(self._undo):
            if previous is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._undo.clear()


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer entry point with ``tracer`` spans for the block."""
    import pickle

    import repro.pipeline as pipeline
    from repro.dse import apply as dse_apply
    from repro.dse import space as dse_space
    from repro.dse.engine import ExplorationPolicy
    from repro.dse.incremental import PrefixSnapshotCache
    from repro.dse.runtime import model as runtime_model
    from repro.dse.runtime import worker as runtime_worker
    from repro.dse.runtime.cache import EstimateCache
    from repro.dse.runtime.checkpoint import CheckpointStore
    from repro.estimation.estimator import QoREstimator
    from repro.frontend import c_to_mlir, models
    from repro.ir.module import ModuleOp
    from repro.ir.operation import Operation
    from repro.ir.pass_registry import registered_passes
    from repro.transforms.graph import lower_graph

    patches = _Patches()

    # transforms + ir.pass_manager: one span per pass run, IR size after it.
    def pass_name(registered: str):
        if registered == "canonicalize":
            return lambda *a, **k: ("pass.canonicalize0" if tracer.inside("prefix.")
                                    else "pass.canonicalize")
        return f"pass.{registered}"

    def count_after_pass(span, result, pass_, op):
        if span[NAME][len("pass."):] in TRACKED_PASSES:
            tracer.count_ops(span[NAME], op)

    for registered, cls in registered_passes().items():
        if "run" in vars(cls):
            patches.set(cls, "run", _traced(tracer, pass_name(registered),
                                            vars(cls)["run"], count_after_pass))

    # estimation
    def count_estimated(span, result, estimator, func_op, *args, **kwargs):
        if span[PARENT] is None or span[PARENT][NAME] != "estimate":
            tracer.count_ops("estimate", func_op)

    patches.set(QoREstimator, "estimate_function",
                _traced(tracer, "estimate", QoREstimator.estimate_function,
                        count_estimated))

    # ir: whole-module clones only (Operation.clone recurses per op and is
    # the inner loop of unrolling, far too hot to wrap), and the IR digest.
    patches.set(ModuleOp, "clone", _traced(
        tracer, "ir.clone", Operation.clone,
        lambda span, result, *a, **k: tracer.count_ops("ir.clone", result)))
    patches.set_function(dse_space.ir_digest,
                         _traced(tracer, "ir.digest", dse_space.ir_digest))

    # dse.incremental
    checkout = PrefixSnapshotCache.checkout

    @functools.wraps(checkout)
    def traced_checkout(cache, *args, **kwargs):
        misses = cache.misses
        span = tracer.enter("prefix.checkout")
        try:
            return checkout(cache, *args, **kwargs)
        finally:
            tracer.exit(span)
            if cache.misses == misses:
                tracer.prefix_hits += 1
                span[NAME] = "prefix.hit"
            else:
                tracer.prefix_misses += 1
                span[NAME] = "prefix.miss"

    patches.set(PrefixSnapshotCache, "checkout", traced_checkout)

    # dse.space
    from_function = vars(dse_space.KernelDesignSpace)["from_function"].__func__
    patches.set(dse_space.KernelDesignSpace, "from_function",
                classmethod(_traced(tracer, "space.build", from_function)))
    patches.set(dse_space.KernelDesignSpace, "fingerprint",
                _traced(tracer, "space.fingerprint",
                        dse_space.KernelDesignSpace.fingerprint))

    # one evaluation, as the backends run it
    def record_evaluation(span, result, context, encoded, snapshots=None,
                          fault_key=""):
        tracer.evaluations.append((fault_key, duration(span)))

    patches.set_function(runtime_worker.evaluate_encoded,
                         _traced(tracer, "eval", runtime_worker.evaluate_encoded,
                                 record_evaluation))

    # dse.runtime: cache, checkpoint, coordinator steps, model composition
    patches.set(EstimateCache, "__init__",
                _traced(tracer, "cache.load", EstimateCache.__init__))
    patches.set(EstimateCache, "get", _traced(tracer, "cache.get", EstimateCache.get))
    patches.set(EstimateCache, "put", _traced(tracer, "cache.put", EstimateCache.put))
    patches.set(CheckpointStore, "save",
                _traced(tracer, "checkpoint.save", CheckpointStore.save))
    for step, name in (("initial_batch", "coordinator.propose"),
                       ("propose_batch", "coordinator.propose"),
                       ("frontier_of", "coordinator.frontier"),
                       ("finalize", "coordinator.frontier")):
        patches.set(ExplorationPolicy, step, staticmethod(
            _traced(tracer, name, getattr(ExplorationPolicy, step))))
    patches.set_function(runtime_model.compose_model_frontier,
                         _traced(tracer, "model.compose",
                                 runtime_model.compose_model_frontier))

    # dse.runtime.worker: backend creation and pool start
    def measure_payload(span, backend, contexts, *args, **kwargs):
        with tracer.off_clock():
            tracer.context_pickle_bytes = len(pickle.dumps(
                (contexts, dict(dse_apply.CLEANUP_PIPELINES))))

    patches.set_function(runtime_worker.create_backend,
                         _traced(tracer, "pool.start", runtime_worker.create_backend,
                                 measure_payload))
    patches.set(runtime_worker.ProcessPoolBackend, "warm_up",
                _traced(tracer, "pool.start",
                        runtime_worker.ProcessPoolBackend.warm_up))

    # frontend + transforms.graph
    patches.set_function(c_to_mlir.parse_c_to_module,
                         _traced(tracer, "frontend.parse_c",
                                 c_to_mlir.parse_c_to_module))
    patches.set_function(models.build_model,
                         _traced(tracer, "frontend.build_model", models.build_model))
    patches.set_function(pipeline.prepare_dnn_stages,
                         _traced(tracer, "graph.stage", pipeline.prepare_dnn_stages))
    patches.set_function(lower_graph.lower_graph_to_loops,
                         _traced(tracer, "graph.lower",
                                 lower_graph.lower_graph_to_loops))
    try:
        yield tracer
    finally:
        patches.restore()


# -- statistics -------------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 for no samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

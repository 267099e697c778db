"""Incremental evaluation: prefix-shared pipelines with IR snapshot caching.

Every kernel evaluation runs the same leading passes — canonicalization plus
the two boolean structural knobs (loop perfectization, variable-bound
removal) — before anything point-specific happens (permutation, tiling,
pipelining, the cleanup tail, array partitioning).  Those knobs admit only
four combinations, so a worker that evaluates hundreds of points re-runs a
byte-identical prefix almost every time.

:class:`PrefixSnapshotCache` memoizes the *post-prefix* module per
``(kernel IR digest, function name, prefix key)`` and serves each evaluation
a fresh **clone** of the snapshot, which is much cheaper than re-running the
prefix.  Each worker process (and the serial backend) owns its own cache —
snapshots are plain IR objects and never cross process boundaries.

Correctness:

* The snapshot is built by exactly the passes the from-scratch path runs
  (the same registry pass objects, in the same order), and every checkout
  clones it, so downstream transforms can never leak state between
  evaluations.  It holds the kernel function and the functions it
  transitively calls — all an evaluation reads — not the whole module.
  The from-scratch path (``apply_design_point(..., snapshots=None)``)
  stays for one-off callers such as ``materialize``; the tests require
  both to produce equal records for every point a sweep visits.
* The cache key embeds :func:`repro.dse.space.ir_digest` of the source
  kernel, which every caller holds (a design space always carries its
  kernel's digest): structurally different IR can never share a snapshot,
  even within one process.  A caller that changes a kernel in place passes
  its new digest.
* The prefix and the band read off a snapshot act on the kernel's
  :func:`~repro.transforms.composite.design_nest`, the nest its design
  space was sized on.

Observability: each checkout emits one constant-shape ``dse.prefix`` span
(cache-warmth only appears in span *args*, never in the trace skeleton) and
the ``dse.prefix.{hits,misses,clones}`` counters.  Snapshot *builds* run
with the session suspended — they happen only on a miss, so their spans
would make the trace depend on execution details — and the build reports the
seconds of its two pass runs itself, as ``pass.seconds.prefix.<key>/<name>``
counters, keeping ``--print-pass-timing`` free of shared-vs-per-point double
counting.
"""

from __future__ import annotations

import time
from typing import Optional

from repro import obs
from repro.dialects.affine_ops import perfect_loop_band
from repro.dse.space import KernelDesignPoint, ir_digest
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.pass_manager import PassManager
from repro.ir.pass_registry import build_pipeline_cached
from repro.transforms.composite import band_shape, design_nest


class PrefixSnapshotCache:
    """Per-worker memo of post-prefix kernel IR, keyed by prefix identity.

    Unbounded: every owner creates one per kernel key, and a kernel has at
    most four prefixes (perfectize x rvb).
    """

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.clones = 0
        #: (kernel digest, function name, prefix key) -> snapshot module.
        self._snapshots: dict[tuple, ModuleOp] = {}

    def __len__(self) -> int:
        return len(self._snapshots)

    def checkout(self, module: ModuleOp, point: KernelDesignPoint,
                 func_name: Optional[str] = None, *,
                 digest: str) -> tuple[ModuleOp, Operation]:
        """A fresh post-prefix clone of ``module`` for evaluating ``point``.

        ``digest`` is the :func:`~repro.dse.space.ir_digest` of the kernel
        function (the DSE runtime ships it in the kernel context's space).

        Returns ``(cloned module, kernel function inside the clone)``; the
        function is exactly what running canonicalize + the design-point
        prefix on a clone of ``module`` would produce, the module holds it
        and the functions it transitively calls, unchanged.
        """
        key = self._key(point, func_name, digest)
        prefix = key[2]
        snapshot = self._snapshots.get(key)
        cached = snapshot is not None
        span = obs.NULL_SPAN if obs.active() is None else obs.span(
            "dse.prefix", key=prefix, cached=cached)
        with span:
            if cached:
                self.hits += 1
                obs.counter("dse.prefix.hits")
            else:
                self.misses += 1
                obs.counter("dse.prefix.misses")
                snapshot, _ = build_prefix(module, point, func_name)
                self._snapshots[key] = snapshot
            cloned = snapshot.clone()
            self.clones += 1
            obs.counter("dse.prefix.clones")
        return cloned, cloned.function(func_name)

    def snapshot(self, module: ModuleOp, point: KernelDesignPoint,
                 func_name: Optional[str], digest: str) -> Operation:
        """The kernel function of ``point``'s snapshot, built now when the
        cache has none: what the suffix of ``point`` finds, to read and
        never to change.  Not a checkout — no hit, miss or clone is counted
        and no span opened — so a coordinator that asks first leaves the
        evaluation's checkout a hit."""
        key = self._key(point, func_name, digest)
        snapshot = self._snapshots.get(key)
        if snapshot is None:
            snapshot = self._snapshots[key] = build_prefix(module, point, func_name)[0]
        return snapshot.function(func_name)

    @staticmethod
    def _key(point: KernelDesignPoint, func_name: Optional[str],
             digest: str) -> tuple:
        if not digest:
            raise ValueError("a prefix snapshot is keyed on the kernel's "
                             "ir_digest, and none was given")
        return digest, func_name, point.prefix_key()


def build_prefix(module: ModuleOp, point: KernelDesignPoint,
                 func_name: Optional[str] = None
                 ) -> tuple[ModuleOp, Operation]:
    """Run the shared prefix once: cut the module down to the kernel,
    canonicalize, perfectize/rvb.  Returns the post-prefix module and the
    kernel function in it.

    Built with the session suspended (which builds happen is an execution
    detail, not part of the trajectory); the seconds of the two pass runs
    are reported as ``prefix.<key>/<pass name>`` so timing tables attribute
    shared work separately from per-evaluation work.
    """
    from repro.dse.apply import design_point_prefix_pass

    prefix = point.prefix_key()
    snapshot = _kernel_module(module, func_name)
    func_op = snapshot.function(func_name)
    with obs.suspended():
        started = time.perf_counter()
        build_pipeline_cached("canonicalize").run(func_op)
        canonicalized = time.perf_counter()
        PassManager([design_point_prefix_pass(point)]).run(func_op)
        finished = time.perf_counter()
    obs.add_pass_seconds(f"prefix.{prefix}/canonicalize",
                         canonicalized - started)
    obs.add_pass_seconds(f"prefix.{prefix}/design-point-prefix",
                         finished - canonicalized)
    return snapshot, func_op


def post_prefix_band(module: ModuleOp, point: KernelDesignPoint,
                     func_name: Optional[str] = None,
                     snapshots: Optional[PrefixSnapshotCache] = None,
                     digest: Optional[str] = None) -> tuple[str, tuple]:
    """The kernel as the suffix of ``point`` finds it: the structural digest
    of the function after canonicalize + the point's prefix, and the
    :func:`~repro.transforms.composite.band_shape` of the perfect band the
    suffix permutes and tiles (empty without a loop nest).  With the point's
    permutation and tile sizes they decide the program it evaluates
    (:func:`~repro.transforms.composite.plan_design_point`).

    Read off the snapshot of ``snapshots`` (built into it when missing, so
    the evaluation that checks it out next finds it; ``digest``, required
    with ``snapshots``, as for :meth:`PrefixSnapshotCache.checkout`), or
    without a cache built from scratch and dropped on return.
    """
    if snapshots is not None:
        func_op = snapshots.snapshot(module, point, func_name, digest)
    else:
        _, func_op = build_prefix(module, point, func_name)
    nest = design_nest(func_op)
    band = perfect_loop_band(nest) if nest is not None else ()
    return ir_digest(func_op), band_shape(band)


def _kernel_module(module: ModuleOp, func_name: Optional[str]) -> ModuleOp:
    """A copy of ``module`` cut down to what an evaluation of the kernel
    reads: the kernel function and the functions it transitively calls (the
    estimator resolves ``func.call`` callees through the module), in module
    order.  Every checkout clones the snapshot, so the kernel's neighbours
    in a multi-kernel module would be copied at each evaluation otherwise.
    """
    kernel = module.function(func_name)
    needed = {id(kernel)}
    pending = [kernel]
    while pending:
        for op in pending.pop().walk():
            if op.name != "func.call":
                continue
            callee = module.lookup(op.get_attr("callee"))
            if callee is not None and id(callee) not in needed:
                needed.add(id(callee))
                pending.append(callee)
    snapshot = ModuleOp()
    for name, value in module.attributes.items():
        snapshot.set_attr(name, value)
    for op in module.body.operations:
        if id(op) in needed:
            snapshot.append(op.clone())
    return snapshot

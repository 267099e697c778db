"""Applying a design point: the bridge between the DSE engine and the
transform library.

Given a kernel module (scf/affine level) and a :class:`KernelDesignPoint`,
:func:`apply_design_point` clones the module, builds the corresponding
registry pipeline (:func:`kernel_pipeline_spec`), runs it on the kernel
function and finally invokes the QoR estimator — mirroring how the ScaleHLS
DSE drives its transform and analysis library through pass pipelines.  The
cleanup tail of that pipeline is decided, not explored: one built-in entry
of :data:`CLEANUP_PIPELINES`, which every point names unless a sweep
registers a second one (:func:`register_cleanup_pipeline`).

The pipeline spec is also the *hashable transform description* of the flow:
:func:`kernel_pipeline_signature` is embedded in the parallel runtime's
QoR-cache and checkpoint fingerprints, so changing the transform
pipeline can never silently reuse stale estimates.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional, Sequence

from repro.dialects.affine_ops import AccessTable
from repro.dse.space import KernelDesignPoint
from repro.estimation.estimator import QoREstimator, QoRResult
from repro.estimation.platform import Platform, XC7Z020
from repro.ir.encoding import decode, encode
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.pass_manager import PassManager
from repro.ir.pass_registry import build_pipeline_cached, pipeline_signature
from repro.transforms.composite import (
    DesignPointPrefixPass,
    DesignPointSuffixPass,
    design_nest,
)
from repro.transforms.directive.array_partition import ArrayPartitionPass


@dataclasses.dataclass
class AppliedDesign:
    """The optimized module together with its estimated QoR."""

    module: ModuleOp
    func_op: Operation
    point: KernelDesignPoint
    qor: QoRResult
    achieved_ii: Optional[int] = None
    partition_factors: dict = dataclasses.field(default_factory=dict)
    #: ``(qor, achieved_ii)`` of the point's II-siblings — the designs that
    #: differ from ``point`` in the target II only and therefore share
    #: ``module`` but for that one directive value — keyed by target II.
    siblings: dict = dataclasses.field(default_factory=dict)
    #: The loop whose directive holds that value (None when nothing was
    #: pipelined and every sibling shares ``module`` as it is).  It may be a
    #: loop the cleanup pipeline removed from ``module`` afterwards; then
    #: no sibling reads the directive, retargeting it changes nothing
    #: (:func:`adopt_design`), and a pickled design revives it as None.
    pipelined: Optional[Operation] = dataclasses.field(
        default=None, repr=False, compare=False)

    def __reduce__(self):
        # One flat encoding of the module, with func_op and pipelined named
        # by their place in it: pickled on their own they would be second
        # copies of the IR.
        encoding, (func_index, loop_index) = encode(
            self.module, self.func_op, self.pipelined)
        if func_index is None:
            raise ValueError("the design's function is not in its module")
        return _revive_design, (encoding, func_index, loop_index, self.point,
                                self.qor, self.achieved_ii,
                                self.partition_factors, self.siblings)


def _revive_design(encoding, func_index: int, loop_index: Optional[int],
                   point, qor, achieved_ii, partition_factors,
                   siblings) -> AppliedDesign:
    """An unpickled :class:`AppliedDesign`: its module decoded once, its
    function and pipelined loop taken from it."""
    ops = decode(encoding)
    return AppliedDesign(
        module=ops[0], func_op=ops[func_index], point=point, qor=qor,
        achieved_ii=achieved_ii, partition_factors=partition_factors,
        siblings=siblings,
        pipelined=None if loop_index is None else ops[loop_index])


#: The redundancy-elimination tail of a kernel evaluation and of the
#: ``compile_dnn`` flow: one store-forwarding round between ``canonicalize``
#: and ``cse``.  Over 180 sampled knob settings of the six Table III kernels
#: no shorter tail was better on latency or DSP (README "Design space";
#: ``tests/test_estimation.py`` holds it as a law).  No longer tail rewrites
#: anything after it: full unrolling decides its guards and prunes its
#: copies, the scans address an access by the indices ``cse`` will merge and
#: erase what fed only a store they erase, so ``simplify-affine-if``, a
#: second store-forwarding round and a closing ``canonicalize`` leave the IR
#: and every use order as they were (``tests/test_cleanup_tail.py``).
CLEANUP_PIPELINE = "canonicalize,affine-store-forward,simplify-memref-access,cse"

#: Named cleanup pipelines.  One is built in; with a second one registered
#: the *name* becomes a categorical design-space dimension (see
#: :class:`~repro.dse.space.KernelDesignSpace`).  The canonical printed spec
#: of every entry is hashed into cache/checkpoint fingerprints, so renaming
#: or editing a pipeline here can never silently reuse stale estimates.
CLEANUP_PIPELINES: dict[str, str] = {"default": CLEANUP_PIPELINE}


def cleanup_pipeline_names() -> tuple[str, ...]:
    """Registered cleanup-pipeline names, in stable (sorted) order."""
    return tuple(sorted(CLEANUP_PIPELINES))


def register_cleanup_pipeline(name: str, spec: str) -> None:
    """Register (or replace) a named cleanup pipeline at runtime.

    The CLI surface of :data:`CLEANUP_PIPELINES` (``--register-pipeline
    name=spec``).  ``spec`` is validated against the pass registry before
    anything changes — an unknown pass or malformed spec raises
    :class:`~repro.ir.pass_manager.PassError` with the registry's actionable
    message.  Registration invalidates the cached pipeline signatures, so
    cache/checkpoint fingerprints always reflect the live registry.
    """
    from repro.ir.pass_manager import PassError

    if not name or any(ch in name for ch in "=,(){} "):
        raise PassError(f"invalid cleanup pipeline name {name!r}: names must "
                        "be non-empty and contain no '=', ',', braces, "
                        "parentheses or spaces")
    pipeline_signature(spec)  # validates every pass + option in the spec
    CLEANUP_PIPELINES[name] = spec
    cleanup_pipeline_signature.cache_clear()
    kernel_pipeline_signature.cache_clear()


def install_cleanup_pipelines(pipelines: dict[str, str]) -> None:
    """Adopt a coordinator's cleanup-pipeline registry wholesale.

    Worker-process side of ``--register-pipeline``: the evaluation backends
    ship the coordinator's :data:`CLEANUP_PIPELINES` in the worker
    initializer payload, and this installs it — otherwise a worker's
    :func:`kernel_pipeline_signature` would disagree with the coordinator's
    and every evaluation would fail the version-skew guard.
    """
    CLEANUP_PIPELINES.clear()
    CLEANUP_PIPELINES.update(pipelines)
    cleanup_pipeline_signature.cache_clear()
    kernel_pipeline_signature.cache_clear()


def cleanup_pipeline_spec(name: str) -> str:
    """The raw textual spec of a named cleanup pipeline."""
    try:
        return CLEANUP_PIPELINES[name]
    except KeyError:
        from repro.ir.pass_manager import PassError

        known = ", ".join(cleanup_pipeline_names())
        raise PassError(f"unknown cleanup pipeline '{name}' "
                        f"(registered pipelines: {known})") from None


@functools.lru_cache(maxsize=None)
def cleanup_pipeline_signature(name: str) -> str:
    """Canonical printed spec of a named cleanup pipeline.

    This string — not the name — is what design-space fingerprints embed, so
    a renamed or edited pipeline invalidates cached estimates.
    """
    return pipeline_signature(cleanup_pipeline_spec(name))


def design_point_prefix_pass(point: KernelDesignPoint) -> DesignPointPrefixPass:
    """The configured ``design-point-prefix`` pass (the snapshot-cached part)."""
    return DesignPointPrefixPass(perfectize=point.loop_perfectization,
                                 rvb=point.remove_variable_bound)


def design_point_suffix_pass(point: KernelDesignPoint) -> DesignPointSuffixPass:
    """The configured ``design-point-suffix`` pass (the per-point part)."""
    tiles = tuple(point.tile_sizes) \
        if any(size > 1 for size in point.tile_sizes) else ()
    return DesignPointSuffixPass(perm=tuple(point.perm_map), tiles=tiles,
                                 ii=point.target_ii)


def _pass_spec(pass_) -> str:
    """``name{options}`` textual form of a configured pass instance."""
    return pass_.display_name


def _kernel_tail_spec(point: Optional[KernelDesignPoint]) -> str:
    """Everything after the initial canonicalization of one evaluation.

    Spelled as the prefix/suffix pass pair — the split the incremental
    evaluator caches around — so the printed spec, the signature and the
    actual evaluation path all describe the same pipeline.
    """
    if point is not None:
        middle = (f"{_pass_spec(design_point_prefix_pass(point))},"
                  f"{_pass_spec(design_point_suffix_pass(point))}")
    else:
        middle = "design-point-prefix,design-point-suffix"
    cleanup = cleanup_pipeline_spec(point.pipeline if point else "default")
    return f"{middle},{cleanup},array-partition"


def kernel_pipeline_spec(point: Optional[KernelDesignPoint] = None) -> str:
    """The textual pipeline one kernel DSE evaluation runs.

    With ``point`` None the spec is the point-independent *template* (the
    prefix/suffix pair with no options); with a concrete point it
    is the exact, replayable pipeline of that evaluation.  To replay it
    from C source through the driver, prepend the frontend raise::

        driver compile --kernel gemm --pipeline \\
            "func.func(raise-scf-to-affine,<this spec>)"

    (``--pipeline`` replaces the whole post-parse flow, so the raise pass
    must be included explicitly.)

    Caveat: for a function with no affine loop nest the evaluation stops
    after the leading canonicalize (see :func:`optimize_kernel_module`) —
    the remaining passes would at most re-partition arrays the DSE never
    touched, so the replay equivalence holds only for kernels with loops.
    """
    return f"canonicalize,{_kernel_tail_spec(point)}"


@functools.lru_cache(maxsize=1)
def kernel_pipeline_signature() -> str:
    """The runtime's transform fingerprint: the canonical printed template
    spec plus the canonical spec of every named cleanup pipeline.

    A point names its cleanup pipeline, so the fingerprint covers the whole
    registry: a coordinator and a worker (or a cached estimate and a new
    sweep) agree exactly when the template *and* every pipeline a point
    could name print identically.  The template spells
    the prefix/suffix split of the evaluation explicitly, so the signature
    also covers how incremental evaluation partitions the pipeline.
    """
    named = ";".join(f"{name}={cleanup_pipeline_signature(name)}"
                     for name in cleanup_pipeline_names())
    return f"{pipeline_signature(kernel_pipeline_spec(None))}|{named}"


def optimize_kernel_module(module: ModuleOp, point: KernelDesignPoint,
                           func_name: Optional[str] = None,
                           snapshots: "Optional[PrefixSnapshotCache]" = None,
                           digest: Optional[str] = None
                           ) -> tuple[ModuleOp, Operation]:
    """Clone ``module`` and run the design-point pipeline of ``point``.

    Returns the transformed clone and its kernel function.  Transform steps
    that are not applicable to the design point (e.g. permutation of a
    non-perfect band) are skipped rather than failing — the estimator will
    simply see the weaker design, which is how unprofitable points lose in
    the exploration.

    With ``snapshots`` (a :class:`repro.dse.incremental.PrefixSnapshotCache`)
    the shared evaluation prefix — canonicalize + the design point's boolean
    structural knobs — is served from a cached snapshot clone instead of
    being re-run; the output is byte-identical either way.  ``digest``, the
    :func:`~repro.dse.space.ir_digest` of the kernel (its space's
    ``ir_digest``), is required with ``snapshots``: it keys the snapshot.
    """
    cloned, func_op, _, _ = _transform(module, point, func_name, snapshots, digest)
    return cloned, func_op


def _after_prefix(module: ModuleOp, point: KernelDesignPoint,
                  func_name: Optional[str], snapshots, digest: Optional[str]
                  ) -> tuple[ModuleOp, Operation]:
    """A private copy of the kernel after canonicalize + the structural
    prefix of ``point`` — checked out of ``snapshots`` or built from scratch
    — and the module that holds it."""
    if snapshots is not None:
        return snapshots.checkout(module, point, func_name=func_name,
                                  digest=digest)
    cloned = module.clone()
    func_op = cloned.function(func_name)
    build_pipeline_cached("canonicalize").run(func_op)
    if design_nest(func_op) is not None:
        PassManager([design_point_prefix_pass(point)]).run(func_op)
    return cloned, func_op


def _transform(module: ModuleOp, point: KernelDesignPoint,
               func_name: Optional[str], snapshots, digest: Optional[str]
               ) -> tuple[ModuleOp, Operation, Optional[Operation],
                          Optional[AccessTable]]:
    """:func:`optimize_kernel_module`, also returning the loop the design
    point pipelined (None when there was nothing to pipeline, or the loop
    could not be legalized): the one place the target II went — and the
    index expressions array partitioning, the last pass, derived."""
    cloned, func_op = _after_prefix(module, point, func_name, snapshots, digest)
    if design_nest(func_op) is None:
        # Nothing to transform or partition: mirror the bare
        # canonicalization the estimator sees for loop-less functions.
        return cloned, func_op, None, None

    # Same sequence as _kernel_tail_spec(point), but the passes that carry
    # something out of their run are constructed directly (and parsing a
    # distinct suffix spec per design point would thrash the pipeline cache
    # on large sweeps).  The cleanup tail is the point's chosen named
    # pipeline — only a handful exist, so the cached builder still parses
    # each exactly once.
    suffix = design_point_suffix_pass(point)
    PassManager([suffix]).run(func_op)
    build_pipeline_cached(cleanup_pipeline_spec(point.pipeline)).run(func_op)
    partition = ArrayPartitionPass()
    PassManager([partition]).run(func_op)
    return cloned, func_op, suffix.pipelined, partition.accesses


def apply_design_point(module: ModuleOp, point: KernelDesignPoint,
                       platform: Platform = XC7Z020,
                       func_name: Optional[str] = None,
                       snapshots: "Optional[PrefixSnapshotCache]" = None,
                       digest: Optional[str] = None,
                       sibling_iis: Sequence[int] = ()) -> AppliedDesign:
    """Apply ``point`` to a clone of ``module`` and estimate the result.

    ``snapshots``/``digest`` enable incremental evaluation — see
    :func:`optimize_kernel_module`.

    The target II is the one knob of a design point no transform reads:
    ``pipeline_loop`` stores it in the loop directive and only the estimator
    looks at it again.  Points that differ in it alone form a *transform
    class* with one transformed IR, so the estimator closes its analysis of
    that IR over ``point.target_ii`` and every II of ``sibling_iis`` in one
    call; the result's ``siblings`` hold, per sibling II, exactly the QoR
    and achieved II that applying the sibling point from scratch yields.
    """
    optimized, func_op, pipelined, accesses = _transform(
        module, point, func_name, snapshots, digest)
    iis = [point.target_ii]
    if pipelined is not None:
        # No pipelined loop, no directive: every sibling shares the one QoR.
        iis += [ii for ii in dict.fromkeys(sibling_iis) if ii != point.target_ii]
    estimates = QoREstimator(platform).estimate_function(
        func_op, module=optimized, retarget=pipelined, target_iis=iis,
        accesses=accesses)
    # Whether the estimator reached a pipelined loop does not depend on the
    # target II: one directive lookup serves every estimate that needs it.
    directive = None
    if any(qor.achieved_ii is None for qor in estimates):
        directive = _pipeline_directive(func_op)
    outcomes = {
        ii: (qor, qor.achieved_ii if qor.achieved_ii is not None
             else _achieved_ii(directive, pipelined, ii))
        for ii, qor in zip(iis, estimates)}
    qor, achieved_ii = outcomes[point.target_ii]
    return AppliedDesign(
        module=optimized, func_op=func_op, point=point, qor=qor,
        achieved_ii=achieved_ii,
        partition_factors=_collect_partitions(func_op),
        siblings={ii: outcomes.get(ii, (qor, achieved_ii))
                  for ii in sibling_iis},
        pipelined=pipelined)


def adopt_design(design: AppliedDesign, point: KernelDesignPoint,
                 module: ModuleOp) -> AppliedDesign:
    """What ``apply_design_point(module, point, ...)`` returns, made of
    ``design`` instead of a second transform run.

    ``design`` must be an evaluation of ``point``'s transform class (the
    program ``point`` stages to, at any target II it estimated as a
    sibling) on ``module`` or on the cut-down copy a prefix snapshot holds.
    It is consumed: the pipelined loop's directive takes ``point``'s target
    II, and ``design``'s functions move into a copy of ``module`` in place
    of their namesakes.
    """
    from repro.dialects.hlscpp import get_loop_directive, set_loop_directive

    qor, achieved_ii = design.siblings[point.target_ii]
    if design.pipelined is not None:
        directive = get_loop_directive(design.pipelined)
        set_loop_directive(design.pipelined, dataclasses.replace(
            directive, target_ii=max(1, point.target_ii)))
    own = {op.get_attr("sym_name"): op for op in design.module.functions()}
    whole = ModuleOp()
    for name, value in module.attributes.items():
        whole.set_attr(name, value)
    for op in module.body.operations:
        mine = own.get(op.get_attr("sym_name"))
        whole.append(mine.detach() if mine is not None else op.clone())
    return AppliedDesign(module=whole, func_op=design.func_op, point=point,
                         qor=qor, achieved_ii=achieved_ii,
                         partition_factors=design.partition_factors,
                         pipelined=design.pipelined)


def estimate_baseline(module: ModuleOp, platform: Platform = XC7Z020,
                      func_name: Optional[str] = None) -> QoRResult:
    """Estimate the unoptimized kernel (no directives, no code rewriting)."""
    cloned = module.clone()
    func_op = cloned.function(func_name)
    build_pipeline_cached("canonicalize").run(func_op)
    estimator = QoREstimator(platform)
    return estimator.estimate_function(func_op, module=cloned)


# -- helpers -----------------------------------------------------------------------------------


def _pipeline_directive(func_op: Operation):
    """The first operation of ``func_op`` that carries a pipeline directive,
    with the directive (None when nothing is pipelined)."""
    from repro.dialects.hlscpp import get_loop_directive

    for op in func_op.walk():
        directive = get_loop_directive(op)
        if directive is not None and directive.pipeline:
            return op, directive
    return None


def _achieved_ii(found, pipelined: Optional[Operation],
                 target_ii: int) -> Optional[int]:
    """Directive fallback for a function whose pipelined loop the estimator
    never reached: ``found`` is what :func:`_pipeline_directive` returned,
    and ``pipelined`` is read as carrying ``target_ii``."""
    if found is None:
        return None
    op, directive = found
    return directive.achieved_ii or (
        target_ii if op is pipelined else directive.target_ii)


def _collect_partitions(func_op: Operation) -> dict[str, tuple[int, ...]]:
    from repro.ir.types import MemRefType

    factors: dict[str, tuple[int, ...]] = {}
    for index, argument in enumerate(func_op.region(0).front.arguments):
        if isinstance(argument.type, MemRefType):
            factors[f"arg{index}"] = tuple(f for _, f in argument.type.partition)
    return factors

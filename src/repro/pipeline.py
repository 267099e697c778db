"""End-to-end compilation flows.

This module packages the front-ends, the transform library, the estimator and
the emitter into the flows the paper evaluates:

* :func:`compile_kernel` — HLS C in, affine-level kernel module out (the
  ``scalehls-clang`` + ``-raise-scf-to-affine`` part of Fig. 5).
* :func:`optimize_kernel` — one explicit design point of the
  computation-kernel flow of Section VII-A.
* :func:`explore_kernel` / :func:`explore_module_kernels` — the DSE engine of
  that flow: inline or multi-worker exploration with a persistent QoR
  estimate cache and resumable checkpoints (single kernel or every function
  of a module concurrently).
* :func:`compile_dnn` — the DNN flow of Section VII-B: graph-level dataflow
  optimization, graph-to-loop lowering, loop/directive optimization and QoR
  estimation, parameterized by the graph and loop optimization levels of the
  paper's Fig. 8 ablation.
* :func:`explore_dnn` — the whole-model DSE: the same graph staging
  (:func:`prepare_dnn_stages`) followed by a budgeted multi-kernel sweep of
  every dataflow node and model-level frontier composition.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Optional, Union

from repro import obs
from repro.dse.apply import AppliedDesign, apply_design_point, estimate_baseline
from repro.dse.space import KernelDesignPoint, KernelDesignSpace
from repro.estimation.estimator import QoREstimator, QoRResult
from repro.estimation.platform import Platform, VU9P_SLR, XC7Z020
from repro.frontend.c_to_mlir import parse_c_to_module
from repro.frontend.models import build_model
from repro.frontend.pytorch_like import model_flops
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.pass_registry import build_pipeline_cached
from repro.kernels import kernel_source
from repro.transforms import legalize_dataflow, lower_graph_to_loops, split_function
from repro.transforms.composite import design_nest


# -- computation kernels -----------------------------------------------------------------------------

#: The frontend pipeline every C-level module goes through after parsing.
FRONTEND_PIPELINE = "func.func(raise-scf-to-affine,canonicalize)"


def compile_kernel(name: str, problem_size: int,
                   pipeline: Optional[str] = None) -> ModuleOp:
    """Parse a PolyBench kernel and raise it to the affine level.

    ``pipeline`` overrides the default :data:`FRONTEND_PIPELINE` spec.
    """
    module = parse_c_to_module(kernel_source(name, problem_size), name)
    build_pipeline_cached(pipeline if pipeline is not None else FRONTEND_PIPELINE).run(module)
    return module


def compile_c(source: str, module_name: str = "c_module",
              pipeline: Optional[str] = None) -> ModuleOp:
    """Parse arbitrary HLS C source and raise it to the affine level."""
    module = parse_c_to_module(source, module_name)
    build_pipeline_cached(pipeline if pipeline is not None else FRONTEND_PIPELINE).run(module)
    return module


def optimize_kernel(module: ModuleOp, point: KernelDesignPoint,
                    platform: Platform = XC7Z020) -> AppliedDesign:
    """Apply one explicit design point to a kernel (see also the DSE engine)."""
    return apply_design_point(module, point, platform)


def kernel_baseline(module: ModuleOp, platform: Platform = XC7Z020) -> QoRResult:
    """Estimate the unoptimized kernel (Vivado HLS with no directives)."""
    return estimate_baseline(module, platform)


# -- DSE runtime flows ----------------------------------------------------------------

#: The budgets of a kernel sweep (:func:`explore_kernel`,
#: :func:`explore_module_kernels`, ``dse``) unless the caller sets them.
KERNEL_BUDGET = {"num_samples": 16, "max_iterations": 24, "batch_size": 8,
                 "checkpoint_every": 32}
#: The budgets of a whole-model sweep (:func:`explore_dnn`, ``dnn --dse``):
#: the heaviest node's, of which ``node_budget`` gives the others a share.
DNN_BUDGET = {"num_samples": 8, "max_iterations": 12, "batch_size": 4,
              "checkpoint_every": 16}


def explore_kernel(module: ModuleOp, platform: Platform = XC7Z020, *,
                   checkpoint_dir: Optional[str] = None,
                   func_name: Optional[str] = None,
                   max_evaluations: Optional[int] = None,
                   keep_design: bool = True,
                   **sweep) -> "ParallelDSEResult":
    """Run the DSE runtime on one kernel (``func_name``, or the module's
    first function) over its own design space.

    ``sweep`` takes :class:`repro.dse.runtime.SweepConfig` fields by name
    (``jobs``, ``seed``, ``cache``, ``supervision`` ...) and nothing else;
    the four budgets default to :data:`KERNEL_BUDGET`.  With
    ``checkpoint_dir`` the kernel checkpoints to ``kernel.ckpt.json`` in
    it, and a re-run continues from there.  ``max_evaluations`` bounds the
    points this run evaluates, checked at batch boundaries, step 1
    included: step 1's whole sample is evaluated and the batch that reaches
    the bound is not cut.  ``batch_size=1`` is the paper's
    one-neighbour-at-a-time traversal.  ``keep_design=False`` keeps no
    best design for :meth:`~repro.dse.runtime.ParallelDSEResult.materialize`
    to hand over (:attr:`~repro.dse.runtime.KernelTask.keep_design`): a
    caller that never materializes frees each design inside the evaluation
    that built it, and a pool's workers ship none back.  A sweep over a space of one's own,
    or over several kernels, builds :class:`repro.dse.runtime.KernelTask`
    objects for :func:`repro.dse.runtime.scheduler.explore_kernels`.
    """
    from repro.dse.runtime import KernelTask, SweepConfig
    from repro.dse.runtime.scheduler import explore_kernels

    config = SweepConfig(**{**KERNEL_BUDGET, **sweep})
    space = KernelDesignSpace.from_function(
        module.function(func_name), platforms=config.platforms or None)
    task = KernelTask(key="kernel", module=module, func_name=func_name,
                      space=space, max_evaluations=max_evaluations,
                      keep_design=keep_design)
    return explore_kernels([task], platform, config,
                           checkpoint_dir=checkpoint_dir)["kernel"]


def explore_module_kernels(module: ModuleOp, platform: Platform = XC7Z020, *,
                           checkpoint_dir: Optional[str] = None,
                           func_names: Optional[list[str]] = None,
                           keep_design: bool = True,
                           **sweep) -> "dict[str, ParallelDSEResult]":
    """Run DSE for every explorable function of ``module`` (or of
    ``func_names``) concurrently, ``sweep`` and ``keep_design`` as in
    :func:`explore_kernel`.

    Functions without a :func:`~repro.transforms.composite.design_nest`
    (e.g. a dataflow top that only contains calls) are skipped.  Returns
    per-function results keyed by the function's symbol name; each
    checkpoints to ``<name>.ckpt.json`` under ``checkpoint_dir``.
    """
    from repro.dse.runtime import KernelTask, SweepConfig
    from repro.dse.runtime.scheduler import explore_kernels

    config = SweepConfig(**{**KERNEL_BUDGET, **sweep})
    if func_names is None:
        func_names = [func_op.get_attr("sym_name")
                      for func_op in module.functions()]
    tasks = []
    for name in func_names:
        func_op = module.function(name)
        if design_nest(func_op) is None:
            continue
        space = KernelDesignSpace.from_function(
            func_op, platforms=config.platforms or None)
        tasks.append(KernelTask(key=name, module=module, func_name=name,
                                space=space, keep_design=keep_design))
    return explore_kernels(tasks, platform, config,
                           checkpoint_dir=checkpoint_dir)


# -- DNN models --------------------------------------------------------------------------------------


def prepare_dnn_stages(module: ModuleOp, graph_level: int) -> int:
    """The graph-level stage of the DNN flow, shared by every driver.

    Runs dataflow legalization and function splitting on the module's top
    function in place (``graph_level`` 0 leaves the module monolithic) and
    returns the number of dataflow stages.  Both :func:`compile_dnn` and the
    whole-model DSE (:func:`explore_dnn`) stage models through this
    function, so their per-node kernels are identical.
    """
    if graph_level <= 0:
        return 1
    top = module.functions()[0]
    num_stages = legalize_dataflow(top, insert_copy=graph_level >= 6)
    min_granularity = max(1, math.ceil(num_stages / 2 ** (graph_level - 1)))
    split_function(module, top, min_granularity)
    return math.ceil(num_stages / min_granularity)


def explore_dnn(model: Union[str, ModuleOp], platform: Platform = VU9P_SLR,
                *, graph_level: int = 4,
                checkpoint_dir: Optional[str] = None,
                max_nodes: Optional[int] = None,
                max_evaluations: Optional[int] = None,
                **sweep) -> "ModelDSEResult":
    """Run the whole-model DSE on a bundled DNN model (by name) or an
    un-staged graph-level module (cloned, never mutated).

    Mirrors :func:`explore_kernel` / :func:`explore_module_kernels` for the
    model flow: one shared worker pool sweeps every dataflow node of the
    staged model, and the per-node frontiers compose into the model-level
    latency/resource frontier.  ``sweep`` takes ``SweepConfig`` fields by
    name, the budgets defaulting to :data:`DNN_BUDGET`; ``num_samples`` /
    ``max_iterations`` are the budget of the heaviest node
    (:func:`~repro.dse.runtime.model.node_budget` scales the others).
    ``max_nodes`` keeps the N heaviest nodes; ``max_evaluations`` bounds
    each node's evaluations this run as in :func:`explore_kernel`.
    """
    from repro.dse.runtime import SweepConfig
    from repro.dse.runtime.model import explore_model

    return explore_model(model, platform, SweepConfig(**{**DNN_BUDGET, **sweep}),
                         graph_level=graph_level, checkpoint_dir=checkpoint_dir,
                         max_nodes=max_nodes, max_evaluations=max_evaluations)


@dataclasses.dataclass
class DNNCompilationResult:
    """Outcome of one DNN compilation configuration."""

    module: ModuleOp
    qor: QoRResult
    flops: int
    runtime_seconds: float
    num_dataflow_stages: int

    @property
    def dsp_efficiency(self) -> float:
        """Operations per cycle per DSP (the paper's Table V metric)."""
        if self.qor.interval <= 0 or self.qor.dsp <= 0:
            return 0.0
        return self.flops / self.qor.interval / self.qor.dsp


def compile_dnn(model_name: str, graph_level: int = 0, loop_level: int = 0,
                directive_level: bool = False, platform: Platform = VU9P_SLR,
                model_module: Optional[ModuleOp] = None) -> DNNCompilationResult:
    """Compile a DNN model with the requested optimization levels.

    * ``graph_level`` 0 disables the graph optimizations (no dataflow, single
      function); levels 1..7 enable dataflow legalization and function
      splitting with progressively finer granularity (paper Fig. 8, G1..G7).
    * ``loop_level`` 0 disables loop optimization; levels 1..7 unroll the
      lowered loop nests by ``2**level`` before pipelining (L1..L7).
    * ``directive_level`` enables loop pipelining and array partitioning (D).
    """
    started = time.perf_counter()
    compile_span = obs.NULL_SPAN if obs.active() is None else obs.span(
        "compile.dnn", model=model_name, graph_level=graph_level,
        loop_level=loop_level, directive_level=directive_level)
    with compile_span:
        module = model_module.clone() if model_module is not None else build_model(model_name)
        flops = model_flops(module)
        top = module.functions()[0]

        with obs.span("compile.stage_graph", graph_level=graph_level):
            num_stages = prepare_dnn_stages(module, graph_level)

            # Per-stage work estimate (used to balance unroll factors across
            # stages).
            stage_flops = {
                func_op.get_attr("sym_name"): model_flops(func_op)
                for func_op in module.functions()
            }
            lower_graph_to_loops(module)

        if directive_level or loop_level > 0:
            with obs.span("compile.loop_opt", loop_level=loop_level):
                unroll_factor = 2 ** loop_level if loop_level > 0 else 1
                heaviest = max(stage_flops.values()) if stage_flops else 1
                for func_op in module.functions():
                    if func_op is top and graph_level > 0:
                        continue  # the dataflow top only contains calls
                    function_factor = unroll_factor
                    if graph_level > 0 and heaviest > 0:
                        # Balance the dataflow: lighter stages need
                        # proportionally less parallelism to keep up with the
                        # heaviest stage, which saves DSPs without increasing
                        # the dataflow interval.
                        share = stage_flops.get(func_op.get_attr("sym_name"), heaviest) / heaviest
                        function_factor = max(1, _round_power_of_two(unroll_factor * share))
                    _optimize_lowered_function(func_op, function_factor)

        estimator = QoREstimator(platform)
        qor = estimator.estimate_module(module)
    runtime = time.perf_counter() - started
    return DNNCompilationResult(module=module, qor=qor, flops=flops,
                                runtime_seconds=runtime, num_dataflow_stages=num_stages)


def dnn_baseline(model_name: str, platform: Platform = VU9P_SLR,
                 model_module: Optional[ModuleOp] = None) -> DNNCompilationResult:
    """The Table V baseline: lowered from the graph with no optimization."""
    return compile_dnn(model_name, graph_level=0, loop_level=0, directive_level=False,
                       platform=platform, model_module=model_module)


# -- internals ----------------------------------------------------------------------------------------


def dnn_function_pipeline_spec(unroll_factor: int) -> str:
    """The per-stage loop/directive pipeline of the DNN flow as a spec."""
    from repro.dse.apply import CLEANUP_PIPELINE

    factor = f"{{factor={int(unroll_factor)}}}" if unroll_factor != 1 else ""
    return f"dnn-loop-opt{factor},{CLEANUP_PIPELINE},array-partition"


def _optimize_lowered_function(func_op: Operation, unroll_factor: int) -> None:
    """Loop + directive optimization of one lowered (loop-level) function.

    Runs the registry pipeline of :func:`dnn_function_pipeline_spec`: the
    ``dnn-loop-opt`` pass (loop-order optimization, unrolling towards the
    factor, pipelining), the shared redundancy-elimination tail and array
    partitioning.
    """
    build_pipeline_cached(dnn_function_pipeline_spec(unroll_factor)).run(func_op)


def _round_power_of_two(value: float) -> int:
    """Round to the nearest power of two (at least 1)."""
    if value <= 1:
        return 1
    return 2 ** int(round(math.log2(value)))

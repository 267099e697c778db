"""The automated design space exploration engine (paper Section V-E)."""

from repro.dse.space import KernelDesignPoint, KernelDesignSpace
from repro.dse.pareto import ParetoPoint, pareto_frontier, dominates
from repro.dse.apply import apply_design_point, optimize_kernel_module
from repro.dse.engine import ExplorationPolicy
from repro.dse.runtime import (
    EstimateCache,
    EvaluationRecord,
    ParallelDSEResult,
    SweepConfig,
)

__all__ = [
    "KernelDesignPoint",
    "KernelDesignSpace",
    "ParetoPoint",
    "pareto_frontier",
    "dominates",
    "apply_design_point",
    "optimize_kernel_module",
    "ExplorationPolicy",
    "EstimateCache",
    "EvaluationRecord",
    "ParallelDSEResult",
    "SweepConfig",
]

"""The parallel DSE runtime: multi-worker exploration at scale.

This package drives the 5-step DSE algorithm as a scalable exploration
service.  :class:`~repro.dse.runtime.config.SweepConfig` declares every
setting of a sweep once; each piece below takes it and reads what it acts
on:

* :class:`~repro.dse.runtime.parallel.ParallelExplorer` — a batch-synchronous
  coordinator that drives the engine's pure
  :class:`~repro.dse.engine.ExplorationPolicy` across a pool of worker
  processes, with a hard determinism guarantee: a fixed seed produces an
  identical Pareto frontier for any worker count.
* :class:`~repro.dse.runtime.cache.EstimateCache` — a QoR memo keyed by
  ``(kernel fingerprint, encoded design point)`` with optional JSONL
  persistence, so repeated sweeps skip re-estimation entirely.
* :class:`~repro.dse.runtime.checkpoint.CheckpointStore` — atomic snapshots
  of explorer state (records, RNG, progress) every N evaluations, enabling
  ``--resume`` after interruption with a bit-identical final frontier.
* :class:`~repro.dse.runtime.scheduler.MultiKernelScheduler` — concurrent
  DSE over many :class:`~repro.dse.runtime.scheduler.KernelTask`s (e.g.
  every function of a module) on one shared worker pool and cache.
* :class:`~repro.dse.runtime.model.ModelScheduler` — the whole-model flow:
  graph staging, per-node kernel splitting, budgeted multi-kernel sweep and
  model-level frontier composition.
* :func:`~repro.dse.runtime.worker.create_backend` — where evaluations run:
  inline in the coordinator or on a supervised pool of local worker
  processes.  Nothing leaves the machine; there is no network backend.
"""

from repro.dse.runtime.cache import CacheStats, EstimateCache
from repro.dse.runtime.checkpoint import CheckpointStore, ExplorerState
from repro.dse.runtime.config import SweepConfig
from repro.dse.runtime.faults import (
    EvaluationFailure,
    FaultPlan,
    InjectedFault,
    SupervisionPolicy,
)
from repro.dse.runtime.model import (
    ModelDSEResult,
    ModelFrontierPoint,
    ModelScheduler,
    NodeBudgetPolicy,
    compose_model_frontier,
)
from repro.dse.runtime.parallel import ParallelDSEResult, ParallelExplorer
from repro.dse.runtime.records import EvaluationRecord
from repro.dse.runtime.scheduler import KernelTask, MultiKernelScheduler
from repro.dse.runtime.worker import (
    KernelContext,
    ProcessPoolBackend,
    SerialBackend,
    create_backend,
)

__all__ = [
    "CacheStats",
    "EstimateCache",
    "CheckpointStore",
    "ExplorerState",
    "EvaluationFailure",
    "FaultPlan",
    "InjectedFault",
    "SupervisionPolicy",
    "SweepConfig",
    "ModelDSEResult",
    "ModelFrontierPoint",
    "ModelScheduler",
    "NodeBudgetPolicy",
    "compose_model_frontier",
    "ParallelDSEResult",
    "ParallelExplorer",
    "EvaluationRecord",
    "KernelTask",
    "MultiKernelScheduler",
    "KernelContext",
    "ProcessPoolBackend",
    "SerialBackend",
    "create_backend",
]

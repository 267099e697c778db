"""The parallel DSE runtime: multi-worker exploration at scale.

This package drives the 5-step DSE algorithm as a scalable exploration
service.  :class:`~repro.dse.runtime.config.SweepConfig` declares every
setting of a sweep once; each piece below takes it and reads what it acts
on.  A sweep starts in :mod:`repro.pipeline` (``explore_kernel``,
``explore_module_kernels`` or ``explore_dnn``, whose keywords are
``SweepConfig`` fields) or, for callers that build their own
:class:`~repro.dse.runtime.scheduler.KernelTask`s, in
:func:`~repro.dse.runtime.scheduler.explore_kernels`:

* :func:`~repro.dse.runtime.scheduler.explore_kernels` — the route of every
  sweep: DSE over many ``KernelTask``s on one shared worker pool and
  cache; it owns the backend, the fingerprints and the checkpoint names.
* :mod:`~repro.dse.runtime.parallel` — one kernel's trajectory, handed all
  of that: the engine's pure :class:`~repro.dse.engine.ExplorationPolicy`
  in batches, with a hard determinism guarantee: a fixed seed produces an
  identical Pareto frontier for any worker count.
* :class:`~repro.dse.runtime.cache.EstimateCache` — a QoR memo keyed by
  ``(kernel fingerprint, encoded design point)`` with optional JSONL
  persistence, so repeated sweeps skip re-estimation entirely.
* :class:`~repro.dse.runtime.checkpoint.CheckpointStore` — atomic snapshots
  of a kernel's records every N evaluations, one ``<key>.ckpt.json`` per
  kernel in the checkpoint directory; every run that finds one replays the
  trajectory from step 1 against it, with a bit-identical final frontier.
* :mod:`~repro.dse.runtime.model` — the whole-model flow: graph staging,
  per-node kernel splitting, budgeted multi-kernel sweep and model-level
  frontier composition.
* :func:`~repro.dse.runtime.worker.create_backend` — where evaluations run:
  inline in the coordinator or on a supervised pool of local worker
  processes.  Nothing leaves the machine; there is no network backend.
"""

from repro.dse.runtime.cache import EstimateCache
from repro.dse.runtime.checkpoint import CheckpointStore
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
    compose_model_frontier,
)
from repro.dse.runtime.parallel import ParallelDSEResult
from repro.dse.runtime.records import EvaluationRecord
from repro.dse.runtime.scheduler import KernelTask
from repro.dse.runtime.worker import (
    KernelContext,
    ProcessPoolBackend,
    SerialBackend,
    create_backend,
)

__all__ = [
    "EstimateCache",
    "CheckpointStore",
    "EvaluationFailure",
    "FaultPlan",
    "InjectedFault",
    "SupervisionPolicy",
    "SweepConfig",
    "ModelDSEResult",
    "ModelFrontierPoint",
    "compose_model_frontier",
    "ParallelDSEResult",
    "EvaluationRecord",
    "KernelTask",
    "KernelContext",
    "ProcessPoolBackend",
    "SerialBackend",
    "create_backend",
]

"""The settings of one sweep, declared once: every tier of the runtime takes
a :class:`SweepConfig` and reads the fields it acts on."""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.dse.runtime.cache import EstimateCache
from repro.dse.runtime.faults import FaultPlan, SupervisionPolicy
from repro.estimation.platform import Platform


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """What a sweep explores, how it executes and where it stores results.

    **Trajectory** (``seed`` … ``platforms``) decides which points a sweep
    visits (``platforms`` is part of the fingerprints; a checkpoint holds
    records only); ``batch_size`` is deliberately independent of ``jobs``,
    and empty ``platforms`` keeps the single-platform space shape.
    **Execution**
    (``jobs`` … ``faults``) decides how many local worker processes evaluate
    and how faults are handled: fault *outcomes* attach to design points,
    never to workers or wall-clock, so none of it alters a record, a
    frontier, a fingerprint or a checkpoint (``faults`` is an injected-fault
    schedule for tests and chaos runs).
    **Storage**: the estimate ``cache``, and how many processed points pass
    between checkpoints (where they go is the owning tier's argument).
    """

    seed: int = 2022
    num_samples: int = 24
    max_iterations: int = 48
    batch_size: int = 8
    platforms: tuple[Platform, ...] = ()

    jobs: int = 1
    supervision: SupervisionPolicy = SupervisionPolicy()
    faults: Optional[FaultPlan] = None

    cache: Optional[EstimateCache] = None
    checkpoint_every: int = 32

    def __post_init__(self):
        for name, least in (("jobs", 1), ("batch_size", 1),
                            ("checkpoint_every", 1), ("num_samples", 1),
                            ("max_iterations", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        object.__setattr__(self, "platforms", tuple(self.platforms or ()))

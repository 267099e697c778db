"""Fault injection and supervision policy for the DSE runtime.

The evaluation backends in :mod:`repro.dse.runtime.worker` are supervised:
per-task wall-clock timeouts, worker-crash detection with respawn, bounded
retries of a lost worker's task and deterministic quarantine.  This module
holds the two configuration objects of that layer plus the fault-injection
harness the tests and CI chaos runs use to exercise it:

* :class:`SupervisionPolicy` — how the coordinator reacts to evaluation
  faults (timeout budget, retry budget, quarantine vs. abort).
* :class:`FaultPlan` — *injected* faults: a picklable description threaded
  into :class:`~repro.dse.runtime.worker.KernelContext` that makes selected
  evaluations crash, hang or fail deterministically, so the supervision
  layer can be tested end-to-end without real hardware faults (driver
  flag: ``--inject-faults SPEC``).

Determinism: fault *selection* is a pure function of the encoded design
point (a stable hash, never ``id()`` or wall-clock), and crash/hang attempt
counting lives in an on-disk ledger shared by every worker process — so an
injected fault fires on the same points, the same number of times, at any
``--jobs`` and across pool respawns.  A retried point therefore converges
to the same record the fault-free run computes, which is what the frontier
byte-compare tests assert.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import tempfile
import time
import zlib
from typing import Iterator, Optional

#: Exit code of an injected worker crash (recognizable in CI logs).
CRASH_EXIT_CODE = 86

#: The injectable failure modes.
FAULT_MODES = ("crash", "hang", "poison")


class InjectedFault(RuntimeError):
    """Raised by :meth:`FaultPlan.apply` for the poison mode."""


class EvaluationFailure(RuntimeError):
    """A design-point evaluation failed for good.

    Raised by the supervision layer when ``on_fault="fail"`` (or for
    non-retryable configuration errors), always carrying the kernel name
    and the encoded design point so the error is actionable.
    """


@dataclasses.dataclass(frozen=True)
class SupervisionPolicy:
    """How the evaluation backends react to faults.

    ``task_timeout`` is a wall-clock budget per dispatched evaluation (None
    disables timeouts); a task that exceeds it has its worker killed and is
    charged one fault.  A charged fault — a timeout or a worker crash: the
    worker was lost, which can be environmental, and has been replaced —
    consumes one of ``max_retries`` retries.  An exception raised by the
    evaluation itself is a verdict, not a fault: evaluation is a pure
    function of the point, so it is never retried.  A point that raised, or
    exhausted its retries, is *quarantined* — it becomes a first-class
    failed :class:`~repro.dse.runtime.records.EvaluationRecord` that is
    cached, checkpointed and excluded from the frontier identically at any
    ``--jobs`` — or, with ``on_fault="fail"``, aborts the run with an
    :class:`EvaluationFailure`.
    """

    task_timeout: Optional[float] = None
    max_retries: int = 2
    on_fault: str = "quarantine"

    def __post_init__(self):
        if self.on_fault not in ("quarantine", "fail"):
            raise ValueError(f"on_fault must be 'quarantine' or 'fail', "
                             f"got {self.on_fault!r}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, "
                             f"got {self.task_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


def stable_point_hash(key: str, encoded: tuple) -> int:
    """A stable, process-independent hash of one (kernel, point) identity."""
    return zlib.crc32(f"{key}:{','.join(str(v) for v in encoded)}".encode())


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An injectable fault schedule, shipped to workers as plain data.

    ``mode`` picks the failure (see :data:`FAULT_MODES`):

    * ``crash`` — the worker process dies (``os._exit``), exactly like a
      segfault or an OOM kill.
    * ``hang`` — the evaluation sleeps ``hang_seconds`` (the supervisor's
      ``--task-timeout`` must kill it).
    * ``poison`` — the evaluation raises :class:`InjectedFault`, as it
      would on every attempt: the point is quarantined on its first one.

    ``select`` picks the victims: every point whose
    :func:`stable_point_hash` is ``0 mod select`` matches (so roughly one
    in ``select`` evaluations faults, deterministically).  ``times`` bounds
    how many attempts of a matching point crash or hang before it recovers
    (poison ignores it).  The rule: a plan with ``times <= max_retries``
    converges to the clean records, and one with more quarantines the same
    victims, at any topology — every fault is charged to the point that
    fired it, never to a neighbour.

    ``state_dir`` is the cross-process attempt ledger of the crash and hang
    modes; a sweep handed such a plan without one runs it under a temporary
    ledger of its own (:meth:`ledger`).  The same point is never attempted
    concurrently (retries are serialized by the owning coordinator), so the
    ledger needs no locking.
    """

    mode: str
    select: int = 4
    times: int = 1
    hang_seconds: float = 3600.0
    state_dir: str = ""

    def __post_init__(self):
        if self.mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; "
                             f"expected one of {FAULT_MODES}")
        if self.select < 1:
            raise ValueError(f"select must be >= 1, got {self.select}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.hang_seconds < 0:
            raise ValueError(f"hang_seconds must be >= 0, "
                             f"got {self.hang_seconds}")

    # -- spec parsing ----------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``--inject-faults`` spec string.

        ``SPEC`` is ``MODE`` or ``MODE:key=value,key=value`` — e.g.
        ``poison``, ``crash:select=8,times=2``, ``hang:select=6``.
        """
        mode, _, options = spec.strip().partition(":")
        values: dict = {}
        if options:
            for item in options.split(","):
                name, separator, raw = item.partition("=")
                name = name.strip()
                if not separator or name not in ("select", "times",
                                                 "hang_seconds", "state_dir"):
                    raise ValueError(f"bad fault option {item!r} in {spec!r}; "
                                     f"expected select=/times="
                                     f"/hang_seconds=/state_dir=")
                if name == "state_dir":
                    values[name] = raw.strip()
                elif name == "hang_seconds":
                    values[name] = float(raw)
                else:
                    values[name] = int(raw)
        return cls(mode=mode, **values)

    @contextlib.contextmanager
    def ledger(self) -> Iterator["FaultPlan"]:
        """This plan for one run: as it is when it names its ledger or keeps
        none (``poison``), else with a temporary ledger that the run's end
        removes."""
        if self.state_dir or not self.requires_process_isolation:
            yield self
            return
        with tempfile.TemporaryDirectory(prefix="repro-faults-") as state_dir:
            yield dataclasses.replace(self, state_dir=state_dir)

    # -- selection and firing --------------------------------------------------------------

    def matches(self, key: str, encoded: tuple) -> bool:
        """Whether the plan targets this (kernel, point) — pure and stable."""
        return stable_point_hash(key, encoded) % self.select == 0

    def _ledger_path(self, key: str, encoded: tuple) -> str:
        return os.path.join(self.state_dir,
                            f"{stable_point_hash(key, encoded):08x}.attempts")

    def _record_attempt(self, key: str, encoded: tuple) -> int:
        """Append one attempt to the on-disk ledger; return the new count.

        The write lands *before* the fault fires, so even an ``os._exit``
        crash leaves the attempt recorded and the retry can succeed.
        """
        if not self.state_dir:
            return 1
        os.makedirs(self.state_dir, exist_ok=True)
        path = self._ledger_path(key, encoded)
        with open(path, "ab") as handle:
            handle.write(b".")
            handle.flush()
            os.fsync(handle.fileno())
        return os.path.getsize(path)

    def apply(self, key: str, encoded: tuple) -> None:
        """Fire the planned fault for this evaluation, if any.

        Called from inside the evaluation path (worker process or the
        serial backend) — crashes, hangs or raises according to the plan,
        or returns normally when this evaluation is not a victim.
        """
        if not self.matches(key, encoded):
            return
        if self.mode == "poison":
            raise InjectedFault(f"injected poison: kernel {key!r} "
                                f"point {tuple(encoded)} can never succeed")
        if self._record_attempt(key, encoded) > self.times:
            return  # budget spent: the point recovers
        if self.mode == "crash":
            os._exit(CRASH_EXIT_CODE)
        time.sleep(self.hang_seconds)

    @property
    def requires_process_isolation(self) -> bool:
        """Crash/hang faults must never run inline in the coordinator."""
        return self.mode in ("crash", "hang")

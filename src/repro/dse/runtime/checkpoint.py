"""Resumable exploration checkpoints.

A checkpoint is a full snapshot of explorer state at a batch boundary: the
evaluated records, the RNG state, and the progress counters.  Because the
exploration policy is deterministic and proposals only happen at batch
boundaries, resuming from a checkpoint continues the *exact* trajectory the
uninterrupted run would have taken — the final frontier is identical.

Snapshots are written atomically (temp file + ``os.replace``), so a run
killed mid-write leaves the previous checkpoint intact.

A snapshot names the QoR model its records were estimated under
(``QOR_MODEL_VERSION``, as an estimate-cache line does): records of another
model are not resumed.

A sweep with a persistent estimate cache keeps no checkpoint at all: the
cache never drops a record, so rerunning the sweep replays its trajectory
from the cache, every stored point a hit.  Where such a sweep would save a
checkpoint it syncs the cache instead.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import tempfile
import warnings
from typing import Optional

from repro import obs
from repro.dse.runtime.records import EvaluationRecord
from repro.estimation.estimator import QOR_MODEL_VERSION

#: Bumped whenever the on-disk layout changes incompatibly.
CHECKPOINT_VERSION = 1


@dataclasses.dataclass
class ExplorerState:
    """The resumable state of one exploration run.

    ``config`` echoes the exploration parameters that define the trajectory
    (seed, batch size, budgets); a resume is only valid when they match, so
    an interrupted seed-1 run can never silently masquerade as a seed-2 one.

    ``rng`` is the explorer's generator itself, advanced in place; its state
    (``rng_state``) is read only when a checkpoint is written.
    """

    fingerprint: str
    records: dict[tuple[int, ...], EvaluationRecord]
    rng: random.Random
    samples_done: bool
    iterations_done: int
    seed: int
    config: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def fresh(cls, fingerprint: str, seed: int,
              config: Optional[dict] = None) -> "ExplorerState":
        return cls(fingerprint=fingerprint, records={},
                   rng=random.Random(seed),
                   samples_done=False, iterations_done=0, seed=seed,
                   config=dict(config or {}))

    @property
    def rng_state(self) -> tuple:
        return self.rng.getstate()


class CheckpointStore:
    """Loads and saves :class:`ExplorerState` snapshots at ``path``."""

    def __init__(self, path: str):
        self.path = path

    def exists(self) -> bool:
        return os.path.exists(self.path)

    # -- save -------------------------------------------------------------------------------

    def save(self, state: ExplorerState) -> None:
        payload = {
            "version": CHECKPOINT_VERSION,
            "model": QOR_MODEL_VERSION,
            "fingerprint": state.fingerprint,
            "seed": state.seed,
            "config": state.config,
            "samples_done": state.samples_done,
            "iterations_done": state.iterations_done,
            "rng_state": _rng_state_to_json(state.rng_state),
            "records": [record.to_json_dict() for record in state.records.values()],
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # dumps, not dump: same bytes, but one pass of the C encoder
                # instead of a Python-level write per token.
                handle.write(json.dumps(payload))
                # Crash consistency: the bytes must be durable *before* the
                # rename publishes them, or a power loss could leave the
                # checkpoint pointing at a hole.
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        obs.counter("dse.checkpoint.saves")

    # -- load -------------------------------------------------------------------------------

    def load(self, expected_fingerprint: Optional[str] = None,
             expected_config: Optional[dict] = None) -> Optional[ExplorerState]:
        """Load the snapshot, or ``None`` if absent / incompatible.

        A snapshot is incompatible when the QoR model, the kernel
        fingerprint or the trajectory-defining exploration config differs
        from what the caller is about to run — resuming it would mislabel
        the results.
        """
        if not self.exists():
            return None
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                try:
                    payload = json.load(handle)
                except ValueError:
                    # Atomic writes make this near-impossible for our own
                    # files — a corrupt checkpoint means something else
                    # wrote here.  Say so instead of silently starting over.
                    warnings.warn(
                        f"checkpoint {self.path!r} is not valid JSON; "
                        f"ignoring it and starting fresh",
                        RuntimeWarning, stacklevel=2)
                    return None
            if not isinstance(payload, dict) \
                    or payload.get("version") != CHECKPOINT_VERSION \
                    or payload.get("model") != QOR_MODEL_VERSION:
                return None
            if expected_fingerprint is not None \
                    and payload.get("fingerprint") != expected_fingerprint:
                return None
            if expected_config is not None \
                    and payload.get("config") != expected_config:
                return None
            records = {}
            for data in payload["records"]:
                record = EvaluationRecord.from_json_dict(data)
                records[record.encoded] = record
            return ExplorerState(
                fingerprint=payload["fingerprint"],
                records=records,
                rng=_rng_in(_rng_state_from_json(payload["rng_state"])),
                samples_done=bool(payload["samples_done"]),
                iterations_done=int(payload["iterations_done"]),
                seed=int(payload["seed"]),
                config=dict(payload.get("config", {})),
            )
        except (OSError, KeyError, TypeError, ValueError):
            # A corrupt or foreign file is "no usable checkpoint", not a
            # crash: exploration starts fresh and overwrites it atomically.
            return None


def _rng_state_to_json(state: tuple) -> list:
    """``random.Random.getstate()`` → JSON-safe nested lists."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def _rng_state_from_json(data: list) -> tuple:
    version, internal, gauss_next = data
    return (int(version), tuple(int(v) for v in internal), gauss_next)


def _rng_in(state: tuple) -> random.Random:
    """A generator in ``state``.  Allocated, not constructed: ``Random()``
    would first seed itself from ``os.urandom`` for ``setstate`` to
    overwrite."""
    rng = random.Random.__new__(random.Random)
    rng.setstate(state)
    return rng

"""Exploration checkpoints.

A checkpoint holds what the estimate cache holds: the evaluated records of
one kernel fingerprint, under the QoR model that estimated them.  It holds
no RNG state, no progress counters and no copy of the exploration config.
Each kernel of a sweep checkpoints to ``<key>.ckpt.json`` in the sweep's
checkpoint directory (``kernel.ckpt.json`` for a single kernel), and every
run reads it back when it exists, as it reads the estimate cache.  An
exploration step is a pure function of the seed and of the records seen so
far, so a re-run starts over at step 1 with its own seed and replays: each
point the checkpoint holds is served from it, and only the rest is
evaluated.  Any subset of true records replays the exact
trajectory, so a checkpoint may be saved at any moment (Ctrl-C included),
and one taken under another seed or budget still serves the points the
trajectories share.

Snapshots are written atomically (temp file + ``os.replace``), so a run
killed mid-write leaves the previous checkpoint intact.  Records of another
QoR model (``QOR_MODEL_VERSION``, as an estimate-cache line names it) or of
another fingerprint are not served; the next save overwrites them.

A sweep with a persistent estimate cache keeps no checkpoint at all: the
cache never drops a record, so rerunning the sweep replays its trajectory
from the cache, every stored point a hit.  Where such a sweep would save a
checkpoint it syncs the cache instead.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from typing import Optional

from repro import obs
from repro.dse.runtime.records import EvaluationRecord
from repro.estimation.estimator import QOR_MODEL_VERSION

#: Bumped whenever the on-disk layout changes incompatibly.
CHECKPOINT_VERSION = 2

#: Records by encoded design point.
Records = dict[tuple[int, ...], EvaluationRecord]


class CheckpointStore:
    """Loads and saves the records of one kernel fingerprint at ``path``."""

    def __init__(self, path: str):
        self.path = path

    def exists(self) -> bool:
        return os.path.exists(self.path)

    # -- save -------------------------------------------------------------------------------

    def save(self, fingerprint: str, records: Records) -> None:
        payload = {
            "version": CHECKPOINT_VERSION,
            "model": QOR_MODEL_VERSION,
            "fingerprint": fingerprint,
            "records": [record.to_json_dict() for record in records.values()],
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

    def load(self, expected_fingerprint: Optional[str] = None
             ) -> Optional[Records]:
        """The stored records by encoded point, or ``None`` if the file is
        absent or unusable: corrupt, of another layout version, of another
        QoR model or (when ``expected_fingerprint`` is given) of another
        kernel fingerprint — serving its records would mislabel them."""
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
            records = {}
            for data in payload["records"]:
                record = EvaluationRecord.from_json_dict(data)
                records[record.encoded] = record
            return records
        except (OSError, KeyError, TypeError, ValueError):
            # A corrupt or foreign file is "no usable checkpoint", not a
            # crash: exploration starts fresh and overwrites it atomically.
            return None

"""The QoR estimate cache.

Design-point evaluation — cloning the kernel, running the transform
pipeline, estimating QoR — dominates DSE wall-clock time, yet repeated
sweeps (benchmark reruns, resumed sessions, neighboring seeds) re-estimate
mostly the same points.  :class:`EstimateCache` memoizes
:class:`~repro.dse.runtime.records.EvaluationRecord` objects keyed by
``(kernel fingerprint, encoded design point)`` and can persist every entry
as one JSON line, so a warm cache survives the process.

The cache never drops a live record.  Because a sweep's trajectory is a
pure function of its seed and of the records it has seen, a persistent
cache is all a rerun needs to replay it: a sweep with a cache file keeps no
checkpoint (:mod:`repro.dse.runtime.checkpoint`), and where a checkpoint
would have been written it makes the appended lines durable (:meth:`sync`).

The coordinator consults the cache *before* dispatching work to the pool,
so hit/miss accounting is exact and worker processes never touch the file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import warnings
from typing import Optional, Sequence

from repro import obs
from repro.dse.runtime.records import EvaluationRecord
from repro.estimation.estimator import QOR_MODEL_VERSION

#: Cache key: (kernel fingerprint, encoded design point).
CacheKey = tuple[str, tuple[int, ...]]


@dataclasses.dataclass
class CacheStats:
    """Lifetime accounting of one :class:`EstimateCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    loaded: int = 0
    #: Dead JSONL lines dropped by load-time compaction (superseded
    #: duplicates, stale-model entries, corrupt lines).
    compacted: int = 0
    #: Torn trailing lines recovered at load time — the signature of a crash
    #: mid-append.  The truncated line is dropped with a warning (its entry
    #: simply re-evaluates) instead of failing the load.
    recovered_lines: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class EstimateCache:
    """In-process QoR memo with optional JSONL persistence.

    Unbounded: an entry, once stored, is served for the cache's lifetime.
    Loading compacts the JSONL — dead lines (superseded duplicates,
    stale-model entries, corrupt lines) are dropped and the file is
    atomically replaced by its live lines; dropped lines count into
    ``stats.compacted``.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.stats = CacheStats()
        self._entries: dict[CacheKey, EvaluationRecord] = {}
        self._handle = None
        #: Guards entries, stats and file appends: one cache instance may be
        #: shared by the per-kernel coordinator threads of a scheduler.
        self._lock = threading.Lock()
        if path:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            if os.path.exists(path):
                self._load(path)

    # -- lookup -----------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def known_keys(self) -> frozenset:
        """Snapshot of every (fingerprint, encoded point) key currently held.

        Lets callers distinguish estimates that pre-dated a run from ones
        the run itself stored (no stats are touched).
        """
        with self._lock:
            return frozenset(self._entries)

    def get(self, fingerprint: str,
            encoded: Sequence[int]) -> Optional[EvaluationRecord]:
        with self._lock:
            record = self._entries.get((fingerprint, tuple(encoded)))
            if record is None:
                self.stats.misses += 1
                obs.counter("cache.misses")
            else:
                self.stats.hits += 1
                obs.counter("cache.hits")
            return record

    def put(self, fingerprint: str, record: EvaluationRecord) -> None:
        with self._lock:
            key = (fingerprint, tuple(record.encoded))
            if key in self._entries:
                return
            self._entries[key] = record
            self.stats.stores += 1
            obs.counter("cache.stores")
            if self.path:
                self._append(self._serialize(fingerprint, record))

    # -- persistence ------------------------------------------------------------------------

    def _load(self, path: str) -> None:
        # ``live`` holds the latest valid line per key, in first-seen order.
        live: dict[CacheKey, tuple[EvaluationRecord, str]] = {}
        dead = 0
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
        while lines and not lines[-1]:
            lines.pop()
        last_index = len(lines) - 1
        for index, line in enumerate(lines):
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise ValueError("not a JSON object")
                if data.get("model") != QOR_MODEL_VERSION:
                    dead += 1  # estimated under a stale QoR model
                    continue
                record = EvaluationRecord.from_json_dict(data["record"])
                key = (data["fingerprint"], record.encoded)
            except (KeyError, TypeError, ValueError):
                dead += 1  # truncated/corrupt/foreign line
                if index == last_index:
                    # A torn *trailing* line is the expected artifact of a
                    # crash mid-append (appends are flushed per line, so
                    # only the final one can be cut short).  Recover by
                    # dropping it: the entry just re-evaluates.
                    self.stats.recovered_lines += 1
                    obs.counter("cache.recovered_lines")
                    warnings.warn(
                        f"estimate cache {path!r}: dropped a truncated "
                        f"trailing line (torn write from an interrupted "
                        f"run); the affected point will be re-evaluated",
                        RuntimeWarning, stacklevel=2)
                continue
            if key in live:
                dead += 1  # superseded by this fresher line
            live[key] = (record, line)

        for key, (record, _) in live.items():
            self._entries[key] = record
            self.stats.loaded += 1
            obs.counter("cache.loaded")

        if dead:
            self._compact(path, [line for _, line in live.values()], dead)

    def _compact(self, path: str, lines: list[str], dead: int) -> None:
        """Atomically replace the JSONL file with its live lines."""
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
            # Durable before the rename publishes it, as a checkpoint is: a
            # power loss must not leave an empty cache in the file's place.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        self.stats.compacted += dead
        obs.counter("cache.compacted", dead)

    @staticmethod
    def _serialize(fingerprint: str, record: EvaluationRecord) -> str:
        return json.dumps({"fingerprint": fingerprint,
                           "model": QOR_MODEL_VERSION,
                           "record": record.to_json_dict()})

    def _append(self, line: str) -> None:
        # One lazily opened append handle for the cache's lifetime (caller
        # holds the lock); flushed per line so entries survive a crash.
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(line + "\n")
        self._handle.flush()

    def sync(self) -> None:
        """Make every line appended so far durable (flush + ``fsync``)."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

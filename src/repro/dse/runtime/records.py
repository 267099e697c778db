"""Slim, picklable evaluation results exchanged between DSE processes.

An :class:`EvaluationRecord` is everything the exploration policy needs to
know about an evaluated design point — its QoR and the decoded transform
parameters — without the transformed IR module.  Workers ship records back
to the coordinator (cheap to pickle), the estimate cache persists them as
JSON lines, and checkpoints snapshot them wholesale.  The full
:class:`~repro.dse.apply.AppliedDesign` (with the optimized module, e.g. for
C++ emission) is re-materialized on demand by re-applying the design point,
which is cheap for the handful of frontier designs that survive exploration.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.dse.apply import AppliedDesign
from repro.dse.space import KernelDesignPoint
from repro.estimation.estimator import QoRResult
from repro.estimation.resources import ResourceUsage


#: A record that evaluated successfully carries this status.
STATUS_OK = "ok"

#: A record whose evaluation failed for good and was quarantined:
#: it is cached and checkpointed like any other record (so the decision
#: survives re-runs and warm caches), but it is excluded from every
#: frontier and can never be finalized.
STATUS_QUARANTINED = "quarantined"


@dataclasses.dataclass(frozen=True)
class EvaluationRecord:
    """QoR of one evaluated design point, detached from its IR module.

    ``status`` distinguishes healthy records (:data:`STATUS_OK`, with a
    real ``qor``) from quarantined ones (:data:`STATUS_QUARANTINED`, whose
    ``qor`` is None and whose ``error`` describes the exhausted fault).
    Quarantined records are first-class: the exploration policy treats
    their points as *visited* (so proposals are identical at any worker
    count) while every frontier excludes them.
    """

    encoded: tuple[int, ...]
    point: KernelDesignPoint
    qor: Optional[QoRResult]
    achieved_ii: Optional[int] = None
    status: str = STATUS_OK
    error: str = ""
    #: ``config_hash()`` of the platform the point was evaluated against,
    #: or "" in single-platform sweeps (where the runtime fingerprint
    #: already pins the platform globally).
    platform_hash: str = ""
    #: Records of the point's II-siblings (see
    #: :meth:`~repro.dse.space.KernelDesignSpace.ii_siblings`), answered by
    #: the evaluation that transformed the class.  They ride from a backend
    #: to the coordinator only: never compared, persisted, or kept on a
    #: record the explorer stores.
    siblings: tuple = dataclasses.field(default=(), compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @classmethod
    def from_design(cls, encoded: tuple[int, ...], design: AppliedDesign,
                    platform_hash: str = "",
                    siblings: tuple = ()) -> "EvaluationRecord":
        return cls(encoded=tuple(encoded), point=design.point, qor=design.qor,
                   achieved_ii=design.achieved_ii, platform_hash=platform_hash,
                   siblings=siblings)

    @classmethod
    def quarantined(cls, encoded: tuple[int, ...], point: KernelDesignPoint,
                    error: str) -> "EvaluationRecord":
        """A failed evaluation promoted to a first-class, persistable record."""
        return cls(encoded=tuple(encoded), point=point, qor=None,
                   achieved_ii=None, status=STATUS_QUARANTINED, error=error)

    # -- JSON (de)serialization for the cache / checkpoint files ----------------------------

    def to_json_dict(self) -> dict:
        # Field by field (``dataclasses.asdict`` deep-copies through the
        # fields generically): every cache put and checkpoint save runs this.
        resources = None if self.qor is None else self.qor.resources
        data = {
            "encoded": list(self.encoded),
            "point": {
                "loop_perfectization": self.point.loop_perfectization,
                "remove_variable_bound": self.point.remove_variable_bound,
                "perm_map": list(self.point.perm_map),
                "tile_sizes": list(self.point.tile_sizes),
                "target_ii": self.point.target_ii,
                "pipeline": self.point.pipeline,
            },
            "qor": None if self.qor is None else {
                "latency": self.qor.latency,
                "interval": self.qor.interval,
                "resources": {"dsp": resources.dsp, "lut": resources.lut,
                              "ff": resources.ff,
                              "memory_bits": resources.memory_bits,
                              "bram18k": resources.bram18k},
            },
            "achieved_ii": self.achieved_ii,
        }
        # Healthy single-platform records keep the historical layout
        # byte-for-byte, so caches and checkpoints written before the
        # status/platform fields existed stay valid (and identical) both ways.
        if self.point.platform:
            data["point"]["platform"] = self.point.platform
        if self.platform_hash:
            data["platform_hash"] = self.platform_hash
        if not self.ok:
            data["status"] = self.status
            data["error"] = self.error
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "EvaluationRecord":
        point_data = data["point"]
        qor_data = data["qor"]
        return cls(
            encoded=tuple(int(v) for v in data["encoded"]),
            point=KernelDesignPoint(
                loop_perfectization=bool(point_data["loop_perfectization"]),
                remove_variable_bound=bool(point_data["remove_variable_bound"]),
                perm_map=tuple(int(v) for v in point_data["perm_map"]),
                tile_sizes=tuple(int(v) for v in point_data["tile_sizes"]),
                target_ii=int(point_data["target_ii"]),
                pipeline=str(point_data.get("pipeline", "default")),
                platform=str(point_data.get("platform", "")),
            ),
            qor=None if qor_data is None else QoRResult(
                latency=int(qor_data["latency"]),
                interval=int(qor_data["interval"]),
                resources=ResourceUsage(**qor_data["resources"]),
            ),
            achieved_ii=data.get("achieved_ii"),
            status=str(data.get("status", STATUS_OK)),
            error=str(data.get("error", "")),
            platform_hash=str(data.get("platform_hash", "")),
        )

"""Per-layer metrics of one traced run, derived from benchmark-owned spans.

``*_s`` metrics are totals over one repetition, ``*_ms`` / ``*_us`` metrics
are means per call, ``*_bytes`` are sizes and ``*_share`` / ``*_rate`` are
ratios.  A layer the workload never enters reports 0.
"""

from __future__ import annotations

import glob
import json
import os
import pickle
import socket
import time

from layers import TRACKED_PASSES, Tracer, quantile
from repro.dse.runtime.checkpoint import CheckpointStore
from repro.dse.runtime.records import EvaluationRecord
from repro.dse.runtime.transport import recv_frame, send_frame
from repro.kernels import KERNEL_NAMES

#: Top-level spans that are not the DSE coordinator's own time.
_NOT_COORDINATOR = ("eval", "frontend.", "graph.", "cache.load", "emit",
                    "materialize", "pass.")

#: Calls per micro-measurement: enough that a mean is steady, few enough
#: that a traced run stays short.
MICRO_CALLS = 2000


def _mean_seconds(func, items) -> float:
    """Mean seconds of ``func(item)`` over ``items``, cycled to MICRO_CALLS."""
    if not items:
        return 0.0
    rounds = max(1, MICRO_CALLS // len(items))
    started = time.perf_counter()
    for _ in range(rounds):
        for item in items:
            func(item)
    return (time.perf_counter() - started) / (rounds * len(items))


def record_codec(records: list) -> dict[str, float]:
    """``dse.runtime.records``: the JSON codec of the cache and checkpoints."""
    lines = [json.dumps(record.to_json_dict()) for record in records]
    return {
        "record.encode_us": 1e6 * _mean_seconds(
            lambda record: json.dumps(record.to_json_dict()), records),
        "record.decode_us": 1e6 * _mean_seconds(
            lambda line: EvaluationRecord.from_json_dict(json.loads(line)), lines),
        "record.bytes": sum(map(len, lines)) / len(lines) if lines else 0.0,
    }


def transport_frame(records: list) -> dict[str, float]:
    """``dse.runtime.transport``: one result record framed over a socketpair."""
    payload = {"id": 1, "record": records[0]}
    left, right = socket.socketpair()
    try:
        send_frame(left, "result", payload)
        frame_bytes = len(right.recv(1 << 20))
        rounds = MICRO_CALLS // 4
        started = time.perf_counter()
        for _ in range(rounds):
            send_frame(left, "result", payload)
            recv_frame(right)
        roundtrip = (time.perf_counter() - started) / rounds
    finally:
        left.close()
        right.close()
    return {"transport.frame_roundtrip_us": 1e6 * roundtrip,
            "transport.frame_bytes": float(frame_bytes)}


def module_pickle(modules: list) -> dict[str, float]:
    """``ir``: the module pickles a process pool ships to its workers."""
    started = time.perf_counter()
    size = sum(len(pickle.dumps(module)) for module in modules)
    return {"ir.pickle_s": time.perf_counter() - started,
            "ir.pickle_bytes": float(size)}


def persisted_files(output) -> dict[str, float]:
    """Sizes of what the sweep left on disk, and the checkpoint read path."""
    metrics = {"cache.file_bytes": 0.0, "checkpoint.bytes": 0.0,
               "checkpoint.load_ms": 0.0}
    if output.cache_path:
        metrics["cache.file_bytes"] = float(os.path.getsize(output.cache_path))
    paths = sorted(glob.glob(os.path.join(output.checkpoint_dir or "", "*.ckpt.json")))
    if paths:
        metrics["checkpoint.bytes"] = sum(map(os.path.getsize, paths)) / len(paths)
        started = time.perf_counter()
        for path in paths:
            if CheckpointStore(path).load() is None:
                raise RuntimeError(f"checkpoint {path} did not load")
        metrics["checkpoint.load_ms"] = 1e3 * (time.perf_counter() - started) / len(paths)
    return metrics


def _prefix_saved(tracer: Tracer) -> float:
    """Seconds the snapshot hits saved over evaluating from scratch.

    A miss builds the prefix (clone + passes) and clones the snapshot; a hit
    only clones it.  From scratch every evaluation would pay the build, so a
    hit saves ``miss - 2 * hit`` at the mean costs of the traced repetition.
    """
    if not tracer.prefix_hits or not tracer.prefix_misses:
        return 0.0
    return tracer.prefix_hits * (tracer.mean("prefix.miss") - 2 * tracer.mean("prefix.hit"))


def from_spans(tracer: Tracer, wall: float) -> dict[str, float]:
    """The metrics read off the spans of one traced repetition of ``wall`` s."""
    metrics: dict[str, float] = {}
    for name in TRACKED_PASSES:
        counts = tracer.ops.get(f"pass.{name}", ())
        metrics[f"pass.{name}.s"] = tracer.total(f"pass.{name}")
        metrics[f"pass.{name}.ops_after"] = sum(counts) / len(counts) if counts else 0.0

    estimated_ops = tracer.ops.get("estimate", ())
    metrics["estimate.s"] = tracer.total("estimate")
    metrics["estimate.calls"] = float(len(estimated_ops))
    metrics["estimate.us_per_op"] = (1e6 * metrics["estimate.s"] / sum(estimated_ops)
                                     if sum(estimated_ops) else 0.0)

    metrics["ir.clone_s"] = tracer.total("ir.clone")
    metrics["ir.clone_ops"] = float(sum(tracer.ops.get("ir.clone", ())))
    metrics["ir.digest_s"] = tracer.total("ir.digest")

    checkouts = tracer.prefix_hits + tracer.prefix_misses
    metrics["prefix.checkout_s"] = tracer.total("prefix.hit") + tracer.total("prefix.miss")
    metrics["prefix.build_s"] = tracer.total("prefix.miss")
    metrics["prefix.hit_rate"] = tracer.prefix_hits / checkouts if checkouts else 0.0
    metrics["prefix.saved_s"] = _prefix_saved(tracer)

    metrics["space.build_s"] = tracer.total("space.build")
    metrics["space.fingerprint_s"] = tracer.total("space.fingerprint")

    seconds = [spent for _, spent in tracer.evaluations]
    metrics["eval.p50_ms"] = 1e3 * quantile(seconds, 0.50)
    metrics["eval.p95_ms"] = 1e3 * quantile(seconds, 0.95)
    metrics["eval.max_ms"] = 1e3 * max(seconds, default=0.0)
    metrics["eval.ops_p95"] = quantile(estimated_ops, 0.95)
    for kernel in KERNEL_NAMES:
        spent = [s for key, s in tracer.evaluations if key == kernel]
        metrics[f"kernel.{kernel}.evals_per_s"] = len(spent) / sum(spent) if spent else 0.0

    metrics["cache.load_s"] = tracer.total("cache.load")
    metrics["cache.get_us"] = 1e6 * tracer.mean("cache.get")
    metrics["cache.put_us"] = 1e6 * tracer.mean("cache.put")
    metrics["checkpoint.save_ms"] = 1e3 * tracer.mean("checkpoint.save")
    metrics["checkpoint.saves"] = float(tracer.calls("checkpoint.save"))

    top = tracer.top_level("rep")
    metrics["coordinator.self_s"] = wall - sum(
        spent for name, spent in top.items() if name.startswith(_NOT_COORDINATOR))
    metrics["coordinator.propose_ms"] = 1e3 * tracer.mean("coordinator.propose")
    metrics["coordinator.frontier_ms"] = 1e3 * tracer.mean("coordinator.frontier")
    metrics["model.compose_ms"] = 1e3 * tracer.mean("model.compose")

    metrics["pool.start_s"] = tracer.total("pool.start")
    metrics["pool.context_pickle_bytes"] = float(tracer.context_pickle_bytes)

    metrics["frontend.parse_c_s"] = tracer.total("frontend.parse_c")
    metrics["frontend.raise_s"] = tracer.total("pass.raise-scf-to-affine")
    metrics["frontend.build_model_s"] = tracer.total("frontend.build_model")
    metrics["graph.stage_s"] = tracer.total("graph.stage")
    metrics["graph.lower_s"] = tracer.total("graph.lower")
    metrics["emit.s"] = tracer.total("emit")

    metrics["trace.accounted_share"] = sum(top.values()) / wall
    return metrics

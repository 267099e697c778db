"""One workload in its own process: set-up, timed repetitions, output checks.

Started by ``run.py``; prints one JSON object as its last line.  A timed
run has no tracing and ``repro.obs`` inactive.  A traced run is separate:
it repeats the workload plainly, then under the benchmark's own spans
(``layers.installed``), then inside ``obs.session()``, and reports the
per-layer metrics.  Every time is divided by the machine-speed factor of the
calibration blocks interleaved with it (``calibration.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

import calibration
import layers
import metrics
import perlayer
import workloads
from repro import obs

#: Repetitions every timed run makes even when they outlast ``--seconds``.
MIN_REPS = 3

#: Seconds of plain repetitions a traced run makes before the traced one,
#: and of repetitions inside ``obs.session()`` after it.
TRACED_PLAIN_SECONDS = 10.0
OBS_SECONDS = 5.0


class Checks:
    """Operations attempted and failed: design points and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.quarantined = 0

    def points(self, output) -> None:
        self.attempted += output.points
        self.quarantined += output.quarantined

    def same(self, what: str, output, artifact: bytes) -> None:
        self.attempted += 1
        if output.artifact != artifact:
            self.failures.append(f"{what} differs from the first repetition")

    def verify(self, workload, output) -> None:
        made, failures = workload.verify(output)
        self.attempted += made
        self.failures += failures

    def result(self, values: dict[str, float], kind: str) -> dict:
        unit = metrics.units(kind)
        if set(values) != set(unit):
            raise RuntimeError(f"metric names differ from BENCHMARK.json's {kind}: "
                               f"{sorted(set(values) ^ set(unit))}")
        failed = self.quarantined + len(self.failures)
        return {"correct": failed == 0, "attempted": self.attempted,
                "failed": failed, "failures": self.failures,
                "metrics": {name: {"value": values[name], "unit": unit[name]}
                            for name in unit}}


def fresh_heap() -> None:
    """Collect garbage so that the next repetition starts as a fresh process
    would: with nothing of an earlier repetition left to traverse and the
    collector's generation counters at zero.  The collector stays on during
    the repetition, which is what a user of the compiler pays for; without
    this, repetition n paid for scanning the results of repetitions 1..n-1
    (+8 % a repetition on ``kernel_cold``) and full collections fell inside
    every second ``dnn_warm`` repetition and outside the others."""
    gc.collect()


@dataclasses.dataclass
class Series:
    """A closed loop of repetitions of one workload."""

    #: Artifact bytes of the first repetition; every later one must equal them.
    artifact: bytes
    #: Output of the last repetition, the only one kept alive.
    last: object
    #: Seconds of each repetition at reference speed, and as the clock read.
    walls: list[float]
    raw_walls: list[float]
    #: Seconds of every calibration loop run between the repetitions.
    loops: list[float]


def repeat(workload, checks: Checks, seconds: float, min_reps: int,
           rep=None) -> Series:
    """Repeat ``rep`` (default ``workload.rep``) until the next repetition
    would end after ``seconds``; each repetition is followed by calibration
    and rated by the loops on both sides of it."""
    rep = rep or workload.rep
    series = Series(b"", None, [], [], [])
    began = time.perf_counter()
    before = calibration.block(calibration.OPENING_S)
    series.loops += before
    while len(series.walls) < min_reps or (
            time.perf_counter() - began
            + statistics.median(series.raw_walls) * (1.0 + calibration.SHARE) <= seconds):
        workload.reset()
        series.last = None
        fresh_heap()
        started = time.perf_counter()
        output = rep()
        raw = time.perf_counter() - started
        after = calibration.block(raw * calibration.SHARE)
        series.raw_walls.append(raw)
        series.walls.append(raw / calibration.factor(before + after))
        series.loops += after
        before = after
        checks.points(output)
        if len(series.walls) == 1:
            series.artifact = output.artifact
        else:
            checks.same(f"repetition {len(series.walls)}", output, series.artifact)
        series.last = output
        del output
    return series


def peak_rss_mb() -> float:
    """Largest resident set of this process or any pool worker it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def timed_run(workload, seconds: float, smoke: bool) -> dict:
    checks = Checks()
    series = repeat(workload, checks, seconds, 1 if smoke else MIN_REPS)
    last = series.last
    peak = peak_rss_mb()  # before the output checks: they are not the workload
    checks.verify(workload, last)
    wall = statistics.median(series.walls)
    result = checks.result({
        "wall_s": wall,
        "evals_per_s": last.points / wall,
        "qor_speedup_geomean": workload.qor_speedup(last),
        "peak_rss_mb": peak,
        "setup_s": 0.0,  # filled in by run.py, which times every set-up
    }, "end_to_end")
    result["samples"] = {"wall_s": series.walls, "wall_raw_s": series.raw_walls,
                         "loops": len(series.loops),
                         "loop_median_s": statistics.median(series.loops),
                         "points": last.points}
    return result


def traced_run(workload, plain_seconds: float, obs_seconds: float) -> dict:
    checks = Checks()
    series = repeat(workload, checks, plain_seconds, 1)
    series.last = None  # one output alive at a time, as in the timed run
    plain = statistics.median(series.walls)

    def under_spans(jobs: int):
        """One repetition under the benchmark's spans: (tracer, seconds, factor)."""
        tracer = layers.Tracer()

        def rep():
            with layers.installed(tracer), tracer.span("rep") as root:
                output = workload.rep(tracer=tracer, jobs=jobs)
            return output, layers.duration(root)  # net of counting operations

        workload.reset()
        fresh_heap()
        (output, wall), _, loops = calibration.calibrated(rep)
        checks.points(output)
        checks.same(f"traced repetition (jobs={jobs})", output, series.artifact)
        return tracer, wall, calibration.factor(loops)

    tracer, wall, factor = under_spans(workload.jobs)
    overhead = wall / factor / plain - 1.0
    # A span is rated by its share of the traced repetition, applied to the
    # median of the plain ones: the layers then add up to an untraced
    # repetition, and one repetition's calibration error (+-20 % on the long
    # workloads) stays in ``trace.overhead_share`` alone.
    slowdown = wall / plain
    values = {"pool.parallel_efficiency": 0.0, "pool.barrier_idle_share": 0.0}
    if workload.jobs > 1:
        # Pool workers are other processes: their spans never reach this
        # tracer, so the evaluation-side layers come from a serial traced
        # repetition of the same sweep (identical points, identical records),
        # rated by plain serial repetitions.
        pool_start = tracer.total("pool.start") / slowdown
        serial = repeat(workload, checks, plain_seconds, 2,
                        rep=lambda: workload.rep(jobs=1))
        checks.same("serial repetition", serial.last, series.artifact)
        serial.last = None
        serial_plain = statistics.median(serial.walls)
        tracer, wall, _ = under_spans(1)
        slowdown = wall / serial_plain
        busy = sum(spent for _, spent in tracer.evaluations) / slowdown
        values["pool.parallel_efficiency"] = serial_plain / (workload.jobs * plain)
        values["pool.barrier_idle_share"] = 1.0 - busy / (workload.jobs * plain)
    values.update(metrics.at_reference_speed(perlayer.from_spans(tracer, wall), slowdown))
    values["trace.overhead_share"] = overhead
    if workload.jobs > 1:
        values["pool.start_s"] = pool_start

    def inside_obs():
        with obs.session():
            return workload.rep()

    # As many repetitions as fit: one on the long workloads, whose overhead
    # share then carries the machine's noise, dozens on ``dnn_warm``.
    inside = repeat(workload, checks, obs_seconds, 1, rep=inside_obs)
    observed = inside.last
    checks.same("repetition inside obs.session()", observed, series.artifact)
    values["obs.overhead_share"] = statistics.median(inside.walls) / plain - 1.0

    with calibration.collector_off():  # per-call costs, not the sweep's heap
        measured, _, loops = calibration.calibrated(lambda: {
            **perlayer.record_codec(observed.records),
            **perlayer.transport_frame(observed.records),
            **perlayer.module_pickle(observed.modules),
            **perlayer.persisted_files(observed)})
    values.update(metrics.at_reference_speed(measured, calibration.factor(loops)))
    lookups = observed.cache_hits + observed.cache_misses
    values.update({
        "cache.hit_rate": observed.cache_hits / lookups if lookups else 0.0,
        "space.points": float(observed.space_points),
        "graph.nodes": float(observed.graph_nodes),
        "emit.bytes": float(observed.emit_bytes),
        "warm.wall_p90_s": (layers.quantile(series.walls, 0.9)
                            if len(series.walls) >= 10 else 0.0),
    })
    checks.verify(workload, observed)
    return checks.result(values, "per_layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dse-seed", type=int, default=workloads.DSE_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in run.py just before this process started")
    parser.add_argument("--setup-only", action="store_true",
                        help="report the set-up time and exit")
    args = parser.parse_args(argv)
    if args.smoke:
        # The numbers of a plumbing test mean nothing; keep it short.
        calibration.OPENING_S = 0.0
        perlayer.MICRO_CALLS = 40

    # The flush latency of the sandbox's shared disk is the sandbox's, not the
    # program's: it doubles for minutes (56 checkpoint flushes are an eighth
    # of a ``dnn_warm`` repetition) while the calibration loop, which only
    # computes, reads no change (README.md).  Writes are measured down to the
    # page cache; ``checkpoint.saves`` counts what a real disk would be asked.
    os.fsync = lambda fd: None

    config = workloads.Config(seed=args.seed, dse_seed=args.dse_seed,
                              smoke=args.smoke, workdir=args.workdir)
    workload = workloads.create(args.workload, config)
    try:
        if not args.smoke:  # a smoke repetition is itself of the warm-up's size
            workload.warm_up()
        ready = time.time() - args.spawned_at
        ready /= calibration.factor(calibration.block(ready * calibration.SHARE))
        if args.setup_only:
            result = {"ready_s": ready}
        else:
            _, prepare, _ = calibration.calibrated(workload.prepare)
            if args.trace:
                result = traced_run(workload, *((0.0, 0.0) if args.smoke else
                                                (TRACED_PLAIN_SECONDS, OBS_SECONDS)))
            else:
                result = timed_run(workload, args.seconds, args.smoke)
            result.update(ready_s=ready, prepare_s=prepare)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

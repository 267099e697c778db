#!/usr/bin/env python3
"""Walkthrough of the DSE runtime.

Demonstrates the three pillars of ``repro.dse.runtime`` on a PolyBench
kernel, through ``repro.pipeline.explore_kernel`` (whose keywords are the
``SweepConfig`` fields):

1. **Multi-worker exploration** — the same seed produces the identical
   Pareto frontier with 1 or N workers (determinism contract).
2. **QoR estimate cache** — a second sweep against the warm cache skips
   every re-estimation.
3. **Checkpoints** — a checkpoint directory holds the records evaluated so
   far; a re-run against it replays the trajectory from step 1, serves each
   point the checkpoint holds, evaluates only the rest and lands on the
   same frontier as an uninterrupted one.

It closes with ``explore_module_kernels`` exploring two kernels
concurrently on one shared worker pool.

Usage::

    python examples/parallel_dse.py [kernel] [problem_size] [jobs]
"""

import os
import sys
import tempfile

from repro.dse.runtime import EstimateCache
from repro.dse.apply import estimate_baseline
from repro.estimation import XC7Z020
from repro.kernels import KERNEL_NAMES
from repro.pipeline import compile_kernel, explore_kernel, explore_module_kernels


def frontier_summary(result):
    return [(point.encoded, point.latency, point.area) for point in result.frontier]


def main() -> None:
    kernel = sys.argv[1] if len(sys.argv) > 1 else "gemm"
    problem_size = int(sys.argv[2]) if len(sys.argv) > 2 else 32
    jobs = int(sys.argv[3]) if len(sys.argv) > 3 else 2
    if kernel not in KERNEL_NAMES:
        raise SystemExit(f"unknown kernel {kernel!r}; choose from {KERNEL_NAMES}")

    print(f"Compiling {kernel} (problem size {problem_size}) ...")
    module = compile_kernel(kernel, problem_size)
    baseline = estimate_baseline(module, XC7Z020)

    # 1. Determinism: 1 worker vs. `jobs` workers, same seed, same frontier.
    sweep = dict(num_samples=8, max_iterations=16, seed=2022, batch_size=4)
    serial = explore_kernel(module, XC7Z020, **sweep)
    parallel = explore_kernel(module, XC7Z020, jobs=jobs, **sweep)
    print(f"\n[1] serial: {serial.num_evaluations} evaluations "
          f"in {serial.wall_seconds:.2f}s; "
          f"parallel ({jobs} workers): {parallel.wall_seconds:.2f}s")
    assert frontier_summary(serial) == frontier_summary(parallel)
    print(f"    identical frontier of {len(serial.frontier)} points ✓")

    with tempfile.TemporaryDirectory() as workdir:
        # 2. Estimate cache: the repeat run never re-estimates.
        cache = EstimateCache(os.path.join(workdir, "qor_cache.jsonl"))
        cold = explore_kernel(module, XC7Z020, jobs=jobs, cache=cache, **sweep)
        warm = explore_kernel(module, XC7Z020, jobs=jobs, cache=cache, **sweep)
        cache.close()
        print(f"\n[2] cold run: {cold.cache_misses} misses; warm rerun: "
              f"{warm.cache_hits} hits, {warm.cache_misses} misses "
              f"({warm.wall_seconds:.3f}s)")

        # 3. Checkpoints: stop after 10 evaluations, re-run, same frontier.
        checkpoint = os.path.join(workdir, "checkpoints")
        explore_kernel(module, XC7Z020, jobs=jobs, checkpoint_every=4,
                       checkpoint_dir=checkpoint, max_evaluations=10, **sweep)
        resumed = explore_kernel(module, XC7Z020, jobs=jobs,
                                 checkpoint_dir=checkpoint, **sweep)
        assert frontier_summary(resumed) == frontier_summary(serial)
        print(f"\n[3] interrupted at 10 evaluations, re-run to "
              f"{resumed.num_evaluations} ({resumed.evaluated_this_run} "
              f"evaluated, the rest replayed from the checkpoint); frontier "
              f"matches uninterrupted run ✓")

    # Finalized design of the parallel run.
    best = parallel.best_record
    print(f"\nFinalized: latency={best.qor.latency:,} cycles dsp={best.qor.dsp} "
          f"-> {baseline.latency / best.qor.latency:.1f}x speedup over baseline")

    # 4. Whole-module concurrency: both kernels on one shared pool.
    from repro.testing import GEMM_SOURCE, SYRK_SOURCE, compile_source

    pair = compile_source(GEMM_SOURCE + SYRK_SOURCE, "pair")
    results = explore_module_kernels(pair, XC7Z020, jobs=jobs, num_samples=6,
                                     max_iterations=8, batch_size=4)
    print("\n[4] both kernels on one pool:")
    for name in sorted(results):
        record = results[name].best_record
        print(f"    {name}: best latency={record.qor.latency:,} "
              f"dsp={record.qor.dsp} ({results[name].num_evaluations} evals)")


if __name__ == "__main__":
    main()

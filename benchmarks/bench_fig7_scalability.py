"""Figure 7: scalability study of the computation kernels.

The paper scales the problem size of the six kernels from 32 to 4096 and runs
the DSE under each setting, showing that the achieved speedup stays stable
for the large kernels (and shrinks for the small problem sizes where the
design space is too small to use the full device).  The benchmark sweeps a
representative subset of the sizes and prints one speedup series per kernel.

This file is also a standalone runtime-scalability harness::

    python benchmarks/bench_fig7_scalability.py --jobs 2 --smoke

measures one kernel's DSE wall-clock three ways — serial, parallel over
``--jobs`` workers, and a repeated run against a warm QoR estimate cache —
and reports the parallel and warm-cache speedups plus the cache hit rate.
The parallel speedup depends on the machine's core count; the warm-cache
speedup and the ≥ 90% repeat hit rate are machine-independent properties of
the runtime.

A third mode::

    python benchmarks/bench_fig7_scalability.py --pass-timing

reports per-pass wall-clock of one DSE evaluation, summed over ``--rounds``
evaluations of the same design point.
"""

import argparse
import time

import pytest

from conftest import format_row, run_kernel_dse
from repro.dse.runtime import EstimateCache
from repro.estimation import XC7Z020
from repro.kernels import KERNEL_NAMES
from repro.pipeline import compile_kernel, explore_kernel

PROBLEM_SIZES = (32, 256, 4096)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_fig7_scalability(benchmark, kernel, print_header):
    def run():
        series = {}
        for problem_size in PROBLEM_SIZES:
            _, baseline, result = run_kernel_dse(kernel, problem_size,
                                                 num_samples=8, max_iterations=10)
            best = result.best_record
            series[problem_size] = (baseline.latency / best.qor.latency, best.qor.dsp)
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(f"Figure 7 — scalability of {kernel.upper()} (DSE speedup vs. problem size)")
    widths = (14, 16, 10)
    print(format_row(("problem size", "speedup", "DSP"), widths))
    for problem_size, (speedup, dsp) in series.items():
        print(format_row((problem_size, f"{speedup:.1f}x", dsp), widths))

    # Shape check: every size is improved, and the large sizes benefit at
    # least as much as the smallest one (the paper's observation that small
    # design spaces cap the achievable speedup).
    assert all(speedup > 2.0 for speedup, _ in series.values())
    assert series[PROBLEM_SIZES[-1]][0] >= series[PROBLEM_SIZES[0]][0] * 0.5

    benchmark.extra_info["speedups"] = {size: round(speedup, 1)
                                        for size, (speedup, _) in series.items()}


# -- parallel runtime scalability ---------------------------------------------------------------


def measure_runtime_scalability(kernel: str, problem_size: int, jobs: int,
                                num_samples: int, max_iterations: int,
                                batch_size: int = 8, seed: int = 2022) -> dict:
    """Time one kernel's DSE serial vs. parallel vs. warm-cache.

    All three runs share seed and batch size, so they follow the identical
    exploration trajectory — the comparison isolates pure execution cost.
    """
    module = compile_kernel(kernel, problem_size)

    def run(jobs_now, cache):
        started = time.perf_counter()
        result = explore_kernel(
            module, XC7Z020, num_samples=num_samples,
            max_iterations=max_iterations, seed=seed, jobs=jobs_now,
            batch_size=batch_size, cache=cache)
        return result, time.perf_counter() - started

    serial_result, serial_seconds = run(1, None)

    cache = EstimateCache()
    parallel_result, parallel_seconds = run(jobs, cache)
    warm_result, warm_seconds = run(jobs, cache)

    lookups = warm_result.cache_hits + warm_result.cache_misses
    return {
        "kernel": kernel,
        "problem_size": problem_size,
        "jobs": jobs,
        "num_evaluations": serial_result.num_evaluations,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "warm_seconds": warm_seconds,
        "parallel_speedup": serial_seconds / max(parallel_seconds, 1e-9),
        "warm_speedup": serial_seconds / max(warm_seconds, 1e-9),
        "warm_hit_rate": warm_result.cache_hits / max(lookups, 1),
        "identical_frontier": (
            [(p.encoded, p.latency, p.area) for p in serial_result.frontier]
            == [(p.encoded, p.latency, p.area) for p in parallel_result.frontier]
            == [(p.encoded, p.latency, p.area) for p in warm_result.frontier]),
    }


def print_runtime_report(measurement: dict) -> None:
    print("=" * 78)
    print(f"Parallel DSE runtime — {measurement['kernel']} "
          f"(size {measurement['problem_size']}, "
          f"{measurement['num_evaluations']} evaluations)")
    print("=" * 78)
    widths = (30, 14, 12)
    print(format_row(("configuration", "wall clock", "speedup"), widths))
    print(format_row(("serial (--jobs 1)",
                      f"{measurement['serial_seconds']:.2f}s", "1.0x"), widths))
    print(format_row((f"parallel (--jobs {measurement['jobs']})",
                      f"{measurement['parallel_seconds']:.2f}s",
                      f"{measurement['parallel_speedup']:.1f}x"), widths))
    print(format_row(("repeat with warm cache",
                      f"{measurement['warm_seconds']:.2f}s",
                      f"{measurement['warm_speedup']:.1f}x"), widths))
    print(f"warm-run cache hit rate: {measurement['warm_hit_rate'] * 100:.1f}%")
    print(f"frontier identical across all runs: "
          f"{measurement['identical_frontier']}")


# -- pass timing ---------------------------------------------------------------------------


def measure_pass_timing(kernel: str, problem_size: int,
                        rounds: int = 3, tiles: tuple = (4, 4, 8)) -> dict:
    """Per-pass wall-clock of one DSE evaluation, summed over ``rounds``.

    The same design point (a tiled, pipelined configuration that produces
    large unrolled blocks — the canonicalize/CSE hot path) is applied
    ``rounds`` times after one untimed warm-up; per-pass times are each
    round's ``pass.*`` spans grouped by ``name{options}``, the table
    ``--print-pass-timing`` prints.  ``tiles`` sets the tile sizes of the
    point; tiles equal to the problem size yield a *fully* unrolled kernel,
    the block-size extreme of the paper's Fig. 7 space.
    """
    from repro.dse.apply import apply_design_point
    from repro.dse.space import KernelDesignPoint
    from repro import obs
    from repro.obs.report import pass_timings_of

    module = compile_kernel(kernel, problem_size)
    point = KernelDesignPoint(True, True, (1, 2, 0), tuple(tiles), 1)
    apply_design_point(module, point)
    rounds = max(1, int(rounds))
    timings: dict = {}
    for _ in range(rounds):
        with obs.session() as session:
            apply_design_point(module, point)
        for name, seconds in pass_timings_of(session.metrics.counters,
                                             session.tracer.tracks()).items():
            timings[name] = timings.get(name, 0.0) + seconds
    return {"kernel": kernel, "problem_size": problem_size, "rounds": rounds,
            "timings": timings}


def print_pass_timing_report(measurement: dict) -> None:
    timings, rounds = measurement["timings"], measurement["rounds"]
    total = sum(timings.values())
    print("=" * 78)
    print(f"Pass timing — {measurement['kernel']} "
          f"(size {measurement['problem_size']}, {rounds} evaluations)")
    print("=" * 78)
    widths = (34, 14, 16, 8)
    print(format_row(("pass", "total", "per evaluation", "share"), widths))
    for name in sorted(timings, key=lambda n: -timings[n]):
        seconds = timings[name]
        print(format_row((name, f"{seconds * 1000:.1f} ms",
                          f"{seconds * 1000 / rounds:.2f} ms",
                          f"{seconds / max(total, 1e-9):.0%}"), widths))
    print(format_row(("Total", f"{total * 1000:.1f} ms",
                      f"{total * 1000 / rounds:.2f} ms", ""), widths))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="runtime scalability smoke of the parallel DSE")
    parser.add_argument("--kernel", default="gemm", choices=sorted(KERNEL_NAMES))
    parser.add_argument("--size", type=int, default=32)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--samples", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=16)
    parser.add_argument("--smoke", action="store_true",
                        help="small budgets suitable for a ~30 second CI check")
    parser.add_argument("--pass-timing", action="store_true",
                        help="report per-pass time of one DSE evaluation")
    parser.add_argument("--rounds", type=int, default=3,
                        help="evaluations timed in --pass-timing mode")
    parser.add_argument("--tiles", default="4,4,8",
                        help="tile sizes of the --pass-timing design point; "
                             "tiles equal to --size fully unroll the kernel "
                             "(e.g. --size 16 --tiles 16,16,16)")
    args = parser.parse_args(argv)

    if args.pass_timing:
        tiles = tuple(int(v) for v in args.tiles.split(","))
        measurement = measure_pass_timing(args.kernel, args.size,
                                          rounds=args.rounds, tiles=tiles)
        print_pass_timing_report(measurement)
        return 0

    if args.smoke:
        args.samples = min(args.samples, 6)
        args.iterations = min(args.iterations, 8)

    measurement = measure_runtime_scalability(
        args.kernel, args.size, args.jobs, args.samples, args.iterations)
    print_runtime_report(measurement)

    # Machine-independent runtime guarantees.
    assert measurement["identical_frontier"], \
        "parallel/warm runs diverged from the serial frontier"
    assert measurement["warm_hit_rate"] >= 0.9, \
        f"warm hit rate {measurement['warm_hit_rate']:.2f} below 90%"
    assert measurement["warm_speedup"] >= 2.0, \
        f"warm-cache speedup {measurement['warm_speedup']:.1f}x below 2x"
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())

"""Table III: automated DSE results on the six PolyBench kernels.

Regenerates the paper's Table III — for every kernel (problem size 4096,
target XC7Z020): the speedup of the DSE-selected design over the unoptimized
baseline, together with the transform parameters the DSE selected (loop
perfectization, variable-bound removal, permutation, tile sizes, pipeline II
and the derived array-partition factors).

``python benchmarks/bench_table3_kernel_dse.py --smoke`` prints the GEMM row
at problem size 16 with the same shape checks, in seconds (CI's
``dse-runtime-smoke``).
"""

import argparse

import pytest

from conftest import PAPER_TABLE3_SPEEDUP, format_row, run_kernel_dse
from repro.kernels import KERNEL_NAMES

PROBLEM_SIZE = 4096


def kernel_dse(kernel, problem_size=PROBLEM_SIZE):
    """The kernel's unoptimized baseline and its DSE result."""
    _, baseline, result = run_kernel_dse(kernel, problem_size, num_samples=12,
                                         max_iterations=20)
    return baseline, result


def report(kernel, baseline, result) -> dict:
    """Print the kernel's row next to the paper's, check its shape and return
    the figures the pytest-benchmark entry records."""
    best = result.best_design()
    speedup = baseline.latency / best.qor.latency
    widths = (22, 18, 18)
    print(format_row(("metric", "paper", "measured"), widths))
    print(format_row(("speedup", f"{PAPER_TABLE3_SPEEDUP[kernel]:.1f}x", f"{speedup:.1f}x"),
                     widths))
    print(format_row(("pipeline II", "-", best.achieved_ii), widths))
    print(format_row(("DSPs", "<= 220", best.qor.dsp), widths))
    print(format_row(("evaluated points", "-", result.num_evaluations), widths))
    print(f"selected parameters : {best.point.describe()}")
    print(f"partition factors   : {best.partition_factors}")

    # The DSE must find a real improvement and respect the platform budget.
    assert speedup > 5.0
    assert best.qor.dsp <= 220
    return {"speedup": round(speedup, 1),
            "paper_speedup": PAPER_TABLE3_SPEEDUP[kernel],
            "dsp": best.qor.dsp, "achieved_ii": best.achieved_ii}


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_table3_kernel_dse(benchmark, kernel, print_header):
    """One Table III row per kernel: DSE speedup and selected parameters."""
    baseline, result = benchmark.pedantic(kernel_dse, args=(kernel,),
                                          rounds=1, iterations=1)
    print_header(f"Table III — {kernel.upper()} (problem size {PROBLEM_SIZE}, XC7Z020)")
    benchmark.extra_info.update(report(kernel, baseline, result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="GEMM alone at problem size 16: seconds, for CI")
    args = parser.parse_args(argv)
    size = 16 if args.smoke else PROBLEM_SIZE
    for kernel in ("gemm",) if args.smoke else KERNEL_NAMES:
        print(f"Table III — {kernel.upper()} (problem size {size}, XC7Z020)")
        report(kernel, *kernel_dse(kernel, size))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

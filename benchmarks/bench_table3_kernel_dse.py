"""Table III: automated DSE results on the six PolyBench kernels.

Regenerates the paper's Table III — for every kernel (problem size 4096,
target XC7Z020): the speedup of the DSE-selected design over the unoptimized
baseline, together with the transform parameters the DSE selected (loop
perfectization, variable-bound removal, permutation, tile sizes, pipeline II
and the derived array-partition factors).
"""

import pytest

from conftest import PAPER_TABLE3_SPEEDUP, format_row, run_kernel_dse
from repro.kernels import KERNEL_NAMES

PROBLEM_SIZE = 4096


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_table3_kernel_dse(benchmark, kernel, print_header):
    """One Table III row per kernel: DSE speedup and selected parameters."""

    def run():
        return run_kernel_dse(kernel, PROBLEM_SIZE, num_samples=12, max_iterations=20)

    module, baseline, result = benchmark.pedantic(run, rounds=1, iterations=1)
    best = result.best_design()
    speedup = baseline.latency / best.qor.latency

    print_header(f"Table III — {kernel.upper()} (problem size {PROBLEM_SIZE}, XC7Z020)")
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
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["paper_speedup"] = PAPER_TABLE3_SPEEDUP[kernel]
    benchmark.extra_info["dsp"] = best.qor.dsp
    benchmark.extra_info["achieved_ii"] = best.achieved_ii

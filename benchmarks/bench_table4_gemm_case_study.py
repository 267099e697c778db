"""Table IV: case study of the GEMM kernel with a problem size of 4096.

Reproduces the four rows of the paper's Table IV:

* **Unoptimized** — the kernel as written, no directives.
* **DSE Optimized** — the design selected by the automated DSE engine.
* **Manually Optimized** — a hand-written directive recipe (the permutation /
  tiling / II a designer would reasonably pick without the DSE).
* **Theoretical Bound** — all DSPs performing multiply-accumulates every
  cycle with no stalls.

``python benchmarks/bench_table4_gemm_case_study.py --smoke`` fills the
"ours" columns from a 16^3 GEMM under a small DSE budget and runs the same
shape checks in seconds (CI's ``dse-runtime-smoke``).
"""

import argparse

from conftest import PAPER_TABLE4, format_row, run_kernel_dse
from repro.dse.apply import apply_design_point, estimate_baseline
from repro.dse.space import KernelDesignPoint
from repro.estimation import XC7Z020
from repro.pipeline import compile_kernel

PROBLEM_SIZE = 4096

#: A plausible human-written design: permute the reduction loop outwards,
#: tile modestly, pipeline with II=2 (designers rarely push II=1 by hand).
MANUAL_POINT = KernelDesignPoint(
    loop_perfectization=True,
    remove_variable_bound=False,
    perm_map=(1, 2, 0),
    tile_sizes=(4, 1, 8),
    target_ii=2,
)


def theoretical_bound_cycles(problem_size: int, dsp_budget: int) -> float:
    """All DSPs busy on MACs every cycle (5 DSPs per multiply-accumulate)."""
    macs = problem_size ** 3
    macs_per_cycle = dsp_budget / 5.0
    return macs / macs_per_cycle


def case_study(problem_size=PROBLEM_SIZE, num_samples=14, max_iterations=24):
    """The four rows as ``{design: (cycles, speedup, DSP)}``."""
    module = compile_kernel("gemm", problem_size)
    baseline = estimate_baseline(module, XC7Z020)
    _, _, dse_result = run_kernel_dse("gemm", problem_size,
                                      num_samples=num_samples,
                                      max_iterations=max_iterations)
    manual = apply_design_point(module, MANUAL_POINT, XC7Z020)
    dse_best = dse_result.best_record
    bound = theoretical_bound_cycles(problem_size, XC7Z020.dsp)
    return {
        "Unoptimized": (baseline.latency, 1.0, baseline.dsp),
        "DSE Optimized": (dse_best.qor.latency, baseline.latency / dse_best.qor.latency,
                          dse_best.qor.dsp),
        "Manually Optimized": (manual.qor.latency, baseline.latency / manual.qor.latency,
                               manual.qor.dsp),
        "Theoretical Bound": (bound, baseline.latency / bound, XC7Z020.dsp),
    }


def report(rows) -> None:
    """Print the table next to the paper's (whose figures are for problem
    size 4096) and check its shape: the DSE result sits between the manual
    design and the bound."""
    widths = (22, 26, 26, 22)
    print(format_row(("design", "cycles (paper / ours)", "speedup (paper / ours)",
                      "DSP (paper / ours)"), widths))
    for name, (cycles, speedup, dsp) in rows.items():
        paper_cycles, paper_speedup, paper_dsp = PAPER_TABLE4[name]
        print(format_row((
            name,
            f"{paper_cycles:.2e} / {cycles:.2e}",
            f"{paper_speedup:.1f}x / {speedup:.1f}x",
            f"{paper_dsp} / {dsp}",
        ), widths))

    assert rows["DSE Optimized"][0] < rows["Unoptimized"][0]
    assert rows["DSE Optimized"][1] >= rows["Manually Optimized"][1] * 0.8
    assert rows["DSE Optimized"][0] >= rows["Theoretical Bound"][0] * 0.5
    assert rows["Unoptimized"][2] <= 20


def test_table4_gemm_case_study(benchmark, print_header):
    rows = benchmark.pedantic(case_study, rounds=1, iterations=1)
    print_header(f"Table IV — GEMM case study (problem size {PROBLEM_SIZE}, XC7Z020)")
    report(rows)
    benchmark.extra_info["dse_speedup"] = round(rows["DSE Optimized"][1], 1)
    benchmark.extra_info["manual_speedup"] = round(rows["Manually Optimized"][1], 1)
    benchmark.extra_info["bound_speedup"] = round(rows["Theoretical Bound"][1], 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="a 16^3 GEMM, 8 samples, 12 iterations: seconds, "
                             "for CI")
    args = parser.parse_args(argv)
    size = 16 if args.smoke else PROBLEM_SIZE
    print(f"Table IV — GEMM case study (problem size {size}, XC7Z020)")
    report(case_study(16, 8, 12) if args.smoke else case_study())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

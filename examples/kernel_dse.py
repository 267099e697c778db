#!/usr/bin/env python3
"""Automated design space exploration of a PolyBench kernel (paper Section VII-A).

Runs the 5-step DSE engine on the GEMM kernel for the XC7Z020 edge FPGA,
prints the discovered Pareto frontier of the latency/DSP trade-off space, and
emits the finalized design as HLS C++.

Usage::

    python examples/kernel_dse.py [kernel] [problem_size]

where ``kernel`` is one of bicg, gemm, gesummv, syr2k, syrk, trmm.
"""

import sys

from repro.dse.apply import estimate_baseline
from repro.emit import emit_hlscpp
from repro.estimation import XC7Z020
from repro.kernels import KERNEL_NAMES
from repro.pipeline import compile_kernel, explore_kernel


def main() -> None:
    kernel = sys.argv[1] if len(sys.argv) > 1 else "gemm"
    problem_size = int(sys.argv[2]) if len(sys.argv) > 2 else 256
    if kernel not in KERNEL_NAMES:
        raise SystemExit(f"unknown kernel {kernel!r}; choose from {KERNEL_NAMES}")

    print(f"Compiling {kernel} (problem size {problem_size}) ...")
    module = compile_kernel(kernel, problem_size)
    baseline = estimate_baseline(module, XC7Z020)
    print(f"Baseline latency: {baseline.latency:,} cycles, {baseline.dsp} DSPs")

    # batch_size=1: the paper's one-neighbour-at-a-time traversal.
    result = explore_kernel(module, XC7Z020, num_samples=16, max_iterations=24,
                            seed=2022, batch_size=1)

    print(f"\nEvaluated {result.num_evaluations} design points; Pareto frontier:")
    print(f"{'latency (cycles)':>18}  {'DSPs':>6}  {'II':>4}  parameters")
    for record in result.frontier_records():
        print(f"{record.qor.latency:>18,}  {record.qor.dsp:>6}  "
              f"{record.achieved_ii or '-':>4}  {record.point.describe()}")

    best = result.best_design()
    print(f"\nFinalized design (fits {XC7Z020.name}): "
          f"{best.qor.latency:,} cycles, {best.qor.dsp} DSPs "
          f"-> {baseline.latency / best.qor.latency:.1f}x speedup")
    print(f"Selected parameters: {best.point.describe()}")

    print("\n=== Emitted HLS C++ (truncated) ===")
    code = emit_hlscpp(best.module)
    print("\n".join(code.splitlines()[:40]))
    print("...")


if __name__ == "__main__":
    main()

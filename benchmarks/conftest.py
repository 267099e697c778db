"""Shared helpers and paper reference numbers for the benchmark harness.

Every benchmark prints a "paper vs. measured" table.  Absolute cycle counts
come from our analytical estimator rather than Vivado HLS, so the comparison
is about the *shape* of the results (who wins, by roughly what factor), not
about matching absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.dse.apply import estimate_baseline
from repro.estimation import XC7Z020
from repro.pipeline import compile_kernel, explore_kernel

# Re-exported for test modules: ``from conftest import ...`` resolves to
# whichever conftest.py pytest put on sys.path first, which is this file when
# the benchmarks directory is collected before tests/.
from repro.testing import (  # noqa: F401
    GEMM_SOURCE,
    SYRK_SOURCE,
    compile_source,
    random_array,
    reference_gemm,
    reference_syrk,
)

#: Paper Table III: DSE speedups on the six PolyBench kernels (problem size 4096).
PAPER_TABLE3_SPEEDUP = {
    "bicg": 41.7,
    "gemm": 768.1,
    "gesummv": 199.1,
    "syr2k": 384.0,
    "syrk": 384.1,
    "trmm": 590.9,
}

#: Paper Table IV: the GEMM case study (cycles, speedup, DSPs).
PAPER_TABLE4 = {
    "Unoptimized": (1.237e12, 1.0, 5),
    "DSE Optimized": (1.610e9, 768.1, 217),
    "Manually Optimized": (2.684e9, 460.9, 220),
    "Theoretical Bound": (1.562e9, 791.9, 220),
}

#: Paper Table V: DNN optimization results on one VU9P SLR.
PAPER_TABLE5 = {
    "resnet18": {"speedup": 3825.0, "runtime_s": 60.8, "memory_mb": 91.7,
                 "dsp": 1326, "lut": 157902, "dsp_eff": 1.343, "vta_dsp_eff": 0.344},
    "vgg16": {"speedup": 1505.3, "runtime_s": 37.3, "memory_mb": 46.7,
              "dsp": 878, "lut": 88108, "dsp_eff": 0.744, "vta_dsp_eff": 0.296},
    "mobilenet": {"speedup": 1509.0, "runtime_s": 38.1, "memory_mb": 79.4,
                  "dsp": 1774, "lut": 138060, "dsp_eff": 0.791, "vta_dsp_eff": 0.468},
}

#: Paper Fig. 8: average speedup contributions of each optimization level.
PAPER_FIG8_AVERAGE = {"directive": 1.8, "loop_l7": 130.9, "graph_g7": 10.3}


def run_kernel_dse(name: str, problem_size: int, num_samples: int = 12,
                   max_iterations: int = 20, seed: int = 2022):
    """Compile a kernel, estimate its baseline, and run the DSE engine (the
    paper's one-neighbour-at-a-time traversal: ``batch_size=1``)."""
    module = compile_kernel(name, problem_size)
    baseline = estimate_baseline(module, XC7Z020)
    result = explore_kernel(module, XC7Z020, num_samples=num_samples,
                            max_iterations=max_iterations, seed=seed,
                            batch_size=1)
    return module, baseline, result


def format_row(columns, widths):
    return "  ".join(str(col).rjust(width) for col, width in zip(columns, widths))


@pytest.fixture(scope="session")
def print_header():
    def _print(title: str) -> None:
        print()
        print("=" * 100)
        print(title)
        print("=" * 100)
    return _print

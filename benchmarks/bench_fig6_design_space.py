"""Figure 6: design space profiling of a GEMM kernel.

The paper profiles the GEMM design space in two views: (a) the latency-DSP
plane with the Pareto points highlighted and (b) a PCA projection of the
multi-dimensional design space showing that Pareto points cluster.  The
benchmark samples the space, evaluates every point with the QoR estimator,
prints both series, and checks the clustering property quantitatively (the
spread of Pareto points in PCA space is smaller than the spread of the whole
sample).

``python benchmarks/bench_fig6_design_space.py --smoke`` runs the same
profile and checks on a 16^3 GEMM in seconds (CI's ``dse-runtime-smoke``).
"""

import argparse
import random

import numpy as np

from conftest import format_row
from repro.dse import KernelDesignSpace, apply_design_point, pareto_frontier
from repro.dse.pareto import ParetoPoint
from repro.estimation import XC7Z020
from repro.pipeline import compile_kernel

PROBLEM_SIZE = 4096
NUM_SAMPLES = 48


def profile_design_space(problem_size=PROBLEM_SIZE, num_samples=NUM_SAMPLES):
    module = compile_kernel("gemm", problem_size)
    space = KernelDesignSpace.from_function(module.functions()[0])
    rng = random.Random(42)

    sampled = set()
    while len(sampled) < num_samples:
        sampled.add(space.random_point(rng))

    evaluations = []
    for encoded in sorted(sampled):
        design = apply_design_point(module, space.decode(encoded), XC7Z020)
        vector = space.encode_vector(encoded)
        evaluations.append((encoded, design, vector))
    return evaluations


def report(evaluations) -> tuple[int, float]:
    """Print both views of Fig. 6 and check their shape; returns the number
    of Pareto points and their PCA spread relative to the whole sample's."""
    points = [ParetoPoint(latency=float(design.qor.latency), area=float(design.qor.dsp),
                          encoded=encoded)
              for encoded, design, _ in evaluations]
    frontier = {point.encoded for point in pareto_frontier(points)}

    # PCA of the design-point feature vectors (Fig. 6(b)).
    features = np.array([vector for _, _, vector in evaluations], dtype=float)
    centered = features - features.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    projected = centered @ vt[:2].T

    widths = (16, 10, 9, 11, 11, 8)
    print(format_row(("latency", "DSP", "pareto", "PC0", "PC1", "II"), widths))
    for (encoded, design, _), coords in zip(evaluations, projected):
        print(format_row((f"{design.qor.latency:.3e}", design.qor.dsp,
                          "yes" if encoded in frontier else "no",
                          f"{coords[0]:.2f}", f"{coords[1]:.2f}",
                          design.achieved_ii or "-"), widths))

    pareto_coordinates = np.array([
        coords for (encoded, _, _), coords in zip(evaluations, projected)
        if encoded in frontier])
    all_spread = projected.std(axis=0).mean()
    pareto_spread = pareto_coordinates.std(axis=0).mean() if len(pareto_coordinates) > 1 else 0.0
    print(f"\nPareto points: {len(frontier)} / {len(evaluations)}")
    print(f"PCA spread — all points: {all_spread:.3f}, Pareto points: {pareto_spread:.3f}")

    # Shape checks: a non-trivial frontier exists and Pareto points cluster
    # (their PCA spread does not exceed the overall spread).
    assert 2 <= len(frontier) < len(evaluations)
    assert pareto_spread <= all_spread * 1.05

    return len(frontier), float(pareto_spread / all_spread) if all_spread else 0.0


def test_fig6_design_space_profiling(benchmark, print_header):
    evaluations = benchmark.pedantic(profile_design_space, rounds=1, iterations=1)
    print_header(f"Figure 6 — GEMM design space profiling ({NUM_SAMPLES} sampled points)")
    num_pareto, spread_ratio = report(evaluations)
    benchmark.extra_info["num_pareto"] = num_pareto
    benchmark.extra_info["pca_spread_ratio"] = round(spread_ratio, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="a 16^3 GEMM and 24 samples: seconds, for CI")
    args = parser.parse_args(argv)
    size, samples = (16, 24) if args.smoke else (PROBLEM_SIZE, NUM_SAMPLES)
    print(f"Figure 6 — GEMM {size}^3 design space profiling "
          f"({samples} sampled points)")
    report(profile_design_space(size, samples))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

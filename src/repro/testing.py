"""Shared kernel sources, reference implementations and helpers.

Both the test suite (``tests/conftest.py``) and the benchmark harness
(``benchmarks/conftest.py``) re-export these names.  Keeping them in the
package has two benefits: the definitions exist exactly once, and the two
``conftest.py`` files stay interchangeable — pytest inserts whichever
directory it collects first onto ``sys.path``, so a plain
``from conftest import ...`` in a test module may resolve to either file.
"""

from __future__ import annotations

import numpy as np

from repro.frontend.c_to_mlir import parse_c_to_module
from repro.frontend.raise_to_affine import RaiseSCFToAffinePass
from repro.transforms import canonicalize

SYRK_SOURCE = """
void syrk(float alpha, float beta, float C[16][16], float A[16][8]) {
  for (int i = 0; i < 16; i++) {
    for (int j = 0; j <= i; j++) {
      C[i][j] *= beta;
      for (int k = 0; k < 8; k++) {
        C[i][j] += alpha * A[i][k] * A[j][k];
      }
    }
  }
}
"""

GEMM_SOURCE = """
void gemm(float alpha, float beta, float C[8][8], float A[8][8], float B[8][8]) {
  for (int i = 0; i < 8; i++) {
    for (int j = 0; j < 8; j++) {
      C[i][j] *= beta;
      for (int k = 0; k < 8; k++) {
        C[i][j] += alpha * A[i][k] * B[k][j];
      }
    }
  }
}
"""


def compile_source(source: str, name: str = "kernel"):
    """Parse C, raise to affine, and clean up — the standard front-end path."""
    module = parse_c_to_module(source, name)
    RaiseSCFToAffinePass().run_on_module(module)
    for func_op in module.functions():
        canonicalize(func_op)
    return module


def reference_syrk(alpha, beta, C, A):
    """NumPy reference of the SYRK kernel (lower triangle update)."""
    n, k = A.shape
    result = C.copy()
    for i in range(n):
        for j in range(i + 1):
            result[i, j] *= beta
            for kk in range(k):
                result[i, j] += alpha * A[i, kk] * A[j, kk]
    return result


def reference_gemm(alpha, beta, C, A, B):
    """NumPy reference of the GEMM kernel."""
    return beta * C + alpha * (A @ B)


def random_array(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)

"""Hand-written NumPy references for the six Table III kernels.

The output check of the benchmark must not trust the compiler under test,
so nothing here is imported from ``src/`` or ``tests/``: each reference is
written from the PolyBench definition of the kernel, and the inputs are
drawn from the benchmark's ``--seed``.
"""

from __future__ import annotations

import numpy as np

ALPHA = 1.5
BETA = 0.5
SCALARS = {"alpha": ALPHA, "beta": BETA}


def _shapes(name: str, n: int) -> dict[str, tuple[int, ...]]:
    k = max(2, n // 2)
    return {
        "bicg": {"A": (n, n), "s": (n,), "q": (n,), "p": (n,), "r": (n,)},
        "gemm": {"C": (n, n), "A": (n, n), "B": (n, n)},
        "gesummv": {"A": (n, n), "B": (n, n), "tmp": (n,), "x": (n,), "y": (n,)},
        "syr2k": {"C": (n, n), "A": (n, k), "B": (n, k)},
        "syrk": {"C": (n, n), "A": (n, k)},
        "trmm": {"A": (n, n), "B": (n, n)},
    }[name]


def kernel_arrays(name: str, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded float32 inputs of ``name``, keyed by the C parameter names."""
    return {key: rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)
            for key, shape in _shapes(name, n).items()}


def reference(name: str, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Expected contents of every array ``name`` writes, in float64."""
    a = {key: value.astype(np.float64) for key, value in arrays.items()}
    if name == "bicg":
        return {"s": a["s"] + a["A"].T @ a["r"], "q": a["q"] + a["A"] @ a["p"]}
    if name == "gemm":
        return {"C": BETA * a["C"] + ALPHA * a["A"] @ a["B"]}
    if name == "gesummv":
        tmp = a["tmp"] + a["A"] @ a["x"]
        return {"tmp": tmp, "y": ALPHA * tmp + BETA * (a["y"] + a["B"] @ a["x"])}
    if name == "syrk":
        lower = np.tril(np.ones_like(a["C"], dtype=bool))
        full = BETA * a["C"] + ALPHA * a["A"] @ a["A"].T
        return {"C": np.where(lower, full, a["C"])}
    if name == "syr2k":
        lower = np.tril(np.ones_like(a["C"], dtype=bool))
        full = BETA * a["C"] + ALPHA * (a["A"] @ a["B"].T + a["B"] @ a["A"].T)
        return {"C": np.where(lower, full, a["C"])}
    if name == "trmm":
        # B[i][j] = alpha * (B[i][j] + sum_{k>i} A[k][i] * B[k][j]); row i
        # reads only rows below it, which are still unmodified when it runs.
        strictly_lower = np.tril(a["A"], k=-1)
        return {"B": ALPHA * (a["B"] + strictly_lower.T @ a["B"])}
    raise ValueError(f"no reference for kernel {name!r}")


def mismatches(name: str, actual: dict[str, np.ndarray],
               expected: dict[str, np.ndarray]) -> list[str]:
    """Names of the output arrays of ``name`` that differ from the reference."""
    return [key for key, value in expected.items()
            if not np.allclose(actual[key], value, rtol=1e-3, atol=1e-4)]

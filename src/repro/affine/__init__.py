"""Affine machinery: expressions, maps, integer sets and dependence analysis.

This package is a self-contained reimplementation of the pieces of the MLIR
affine infrastructure that ScaleHLS relies on: affine expressions over loop
induction variables (dims) and symbols, affine maps (used both for loop bounds
and for encoding array-partition layouts into memref types), integer sets
(used for ``affine.if`` conditions), and a light-weight memory dependence
analysis used by loop-order optimization and pipeline II estimation.
"""

from repro.affine.expr import (
    AffineExpr,
    AffineDimExpr,
    AffineSymbolExpr,
    AffineConstantExpr,
    AffineBinaryExpr,
    AffineExprKind,
    dim,
    symbol,
    constant,
)
from repro.affine.map import AffineMap
from repro.affine.set import IntegerSet, Constraint
from repro.affine.analysis import (
    condition_verdict,
    expr_is_function_of_dim,
    expr_constant_term,
    expr_dim_coefficients,
    expr_min_max,
)
from repro.affine.dependence import (
    MemoryAccess,
    dependence_distance,
    accesses_conflict,
)

__all__ = [
    "AffineExpr",
    "AffineDimExpr",
    "AffineSymbolExpr",
    "AffineConstantExpr",
    "AffineBinaryExpr",
    "AffineExprKind",
    "dim",
    "symbol",
    "constant",
    "AffineMap",
    "IntegerSet",
    "Constraint",
    "condition_verdict",
    "expr_is_function_of_dim",
    "expr_constant_term",
    "expr_dim_coefficients",
    "expr_min_max",
    "MemoryAccess",
    "dependence_distance",
    "accesses_conflict",
]

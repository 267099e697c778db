"""Analysis helpers over affine expressions.

These utilities answer the questions the loop transforms and the QoR
estimator need: is an expression linear in the loop induction variables, what
are its per-dim coefficients, what are its extreme values over a
rectangular iteration domain (used by ``-remove-variable-bound``), and does
an integer set hold over such a domain (:func:`condition_verdict`, the one
judge of an ``affine.if`` for ``-simplify-affine-if`` and loop unrolling).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional, Sequence

from repro.affine.expr import (
    AffineBinaryExpr,
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
    AffineExprKind,
    AffineSymbolExpr,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.affine.set import IntegerSet

#: Enumeration fallback limit for non-linear expressions in :func:`expr_min_max`.
_ENUMERATION_LIMIT = 1 << 16


def expr_is_function_of_dim(expr: AffineExpr, position: int) -> bool:
    """Return True if ``expr`` references dim ``position``."""
    return position in expr.used_dims()


def linearize(expr: AffineExpr, num_dims: int) -> tuple[list[int], int] | None:
    """Decompose a linear affine expression into per-dim coefficients.

    Returns ``(coefficients, constant)`` such that
    ``expr == sum(coefficients[d] * d_d) + constant``, or ``None`` if the
    expression is not linear in its dims (contains mod/floordiv/ceildiv of a
    dim, a product of dims, or references symbols).
    """
    if isinstance(expr, AffineConstantExpr):
        return [0] * num_dims, expr.value
    if isinstance(expr, AffineDimExpr):
        coeffs = [0] * num_dims
        if expr.position >= num_dims:
            return None
        coeffs[expr.position] = 1
        return coeffs, 0
    if isinstance(expr, AffineSymbolExpr):
        return None
    if isinstance(expr, AffineBinaryExpr):
        if expr.kind is AffineExprKind.ADD:
            lhs = linearize(expr.lhs, num_dims)
            rhs = linearize(expr.rhs, num_dims)
            if lhs is None or rhs is None:
                return None
            return [a + b for a, b in zip(lhs[0], rhs[0])], lhs[1] + rhs[1]
        if expr.kind is AffineExprKind.MUL:
            lhs = linearize(expr.lhs, num_dims)
            rhs = linearize(expr.rhs, num_dims)
            if lhs is None or rhs is None:
                return None
            lhs_const = all(c == 0 for c in lhs[0])
            rhs_const = all(c == 0 for c in rhs[0])
            if rhs_const:
                factor = rhs[1]
                return [c * factor for c in lhs[0]], lhs[1] * factor
            if lhs_const:
                factor = lhs[1]
                return [c * factor for c in rhs[0]], rhs[1] * factor
            return None
        # mod / floordiv / ceildiv are non-linear unless the operand is constant.
        lhs = linearize(expr.lhs, num_dims)
        rhs = linearize(expr.rhs, num_dims)
        if (lhs is not None and rhs is not None
                and all(c == 0 for c in lhs[0]) and all(c == 0 for c in rhs[0])):
            return [0] * num_dims, expr.evaluate([0] * num_dims)
        return None
    return None


def expr_dim_coefficients(expr: AffineExpr, num_dims: int) -> list[int] | None:
    """Per-dim coefficients of a linear expression, or None if non-linear."""
    decomposed = linearize(expr, num_dims)
    return None if decomposed is None else decomposed[0]


def expr_constant_term(expr: AffineExpr, num_dims: int) -> int | None:
    """The constant term of a linear expression, or None if non-linear."""
    decomposed = linearize(expr, num_dims)
    return None if decomposed is None else decomposed[1]


def expr_min_max(expr: AffineExpr, dim_ranges: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Min and max of ``expr`` over a half-open rectangular dim domain.

    For linear expressions the bounds are computed analytically from the
    coefficient signs.  For non-linear expressions (mod/floordiv) the domain
    is enumerated, which is only permitted for small domains.
    """
    num_dims = len(dim_ranges)
    for low, high in dim_ranges:
        if high <= low:
            raise ValueError("every dim range must be non-empty")
    decomposed = linearize(expr, num_dims)
    if decomposed is not None:
        coeffs, const = decomposed
        low_total = const
        high_total = const
        for coeff, (low, high) in zip(coeffs, dim_ranges):
            last = high - 1
            if coeff >= 0:
                low_total += coeff * low
                high_total += coeff * last
            else:
                low_total += coeff * last
                high_total += coeff * low
        return low_total, high_total

    size = 1
    for low, high in dim_ranges:
        size *= high - low
    if size > _ENUMERATION_LIMIT:
        raise ValueError(
            "cannot bound a non-linear affine expression over a domain of "
            f"{size} points (limit {_ENUMERATION_LIMIT})"
        )
    values = [
        expr.evaluate(point)
        for point in itertools.product(*[range(low, high) for low, high in dim_ranges])
    ]
    return min(values), max(values)


def condition_verdict(condition: "IntegerSet",
                      dim_ranges: Sequence[tuple[int, int]]) -> Optional[bool]:
    """Whether ``condition`` holds over a half-open rectangular dim domain.

    True when every point of the domain satisfies every constraint, False
    when some constraint fails at every point, None when neither is shown
    (dims are bounded independently of each other, and a non-linear
    constraint over a domain too large to enumerate is not bounded at all).
    With every range a single point the verdict is the set's value there;
    with no range given every dim is read as 0.
    """
    if not dim_ranges:
        dim_ranges = [(0, 1)] * condition.num_dims
    always = True
    for constraint in condition.constraints:
        try:
            low, high = expr_min_max(constraint.expr, dim_ranges)
        except ValueError:
            return None
        if constraint.is_equality:
            if low == 0 and high == 0:
                continue
            if low > 0 or high < 0:
                return False
        elif low >= 0:
            continue
        elif high < 0:
            return False
        always = False
    return True if always else None

"""Affine maps.

An :class:`AffineMap` is a function ``(d0, ..., dN-1)[s0, ..., sM-1] ->
(expr0, ..., exprK-1)`` mapping a list of dimension and symbol values to a
list of result expressions.  ScaleHLS uses affine maps in three places:

* loop bounds of ``affine.for`` operations,
* memory access index computations of ``affine.load`` / ``affine.store``,
* the memref *layout map* that encodes array partitioning (an N-dimensional
  array partitioned into physical banks has a layout map with N inputs and 2N
  results: the first N results are the partition indices and the last N the
  physical indices, exactly as described in Section IV-C3 of the paper).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.affine.expr import (
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
    AffineSymbolExpr,
    dim,
)


class AffineMap:
    """An immutable affine map."""

    def __init__(self, num_dims: int, num_symbols: int, results: Sequence[AffineExpr]):
        self.num_dims = int(num_dims)
        self.num_symbols = int(num_symbols)
        self.results: tuple[AffineExpr, ...] = tuple(results)
        for expr in self.results:
            if not isinstance(expr, AffineExpr):
                raise TypeError(f"map result {expr!r} is not an AffineExpr")
            bad_dims = {d for d in expr.used_dims() if d >= self.num_dims}
            bad_syms = {s for s in expr.used_symbols() if s >= self.num_symbols}
            if bad_dims or bad_syms:
                raise ValueError(
                    f"map result {expr} references out-of-range dims {bad_dims} "
                    f"or symbols {bad_syms}"
                )
        #: The result of a map with one constant result, else None: what a
        #: constant loop bound is, read on every trip count.
        self.single_constant: Optional[int] = _single_constant(self.results)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def identity(num_dims: int) -> "AffineMap":
        """The identity map ``(d0, ..., dN-1) -> (d0, ..., dN-1)``."""
        return AffineMap(num_dims, 0, [dim(i) for i in range(num_dims)])

    @staticmethod
    def constant_map(value: int) -> "AffineMap":
        """A zero-input map returning a single constant.

        One shared map per value: maps are immutable, and constant loop
        bounds are most of the maps a lowered model builds.
        """
        value = int(value)
        shared = _CONSTANT_MAPS.get(value)
        if shared is None:
            shared = _CONSTANT_MAPS[value] = AffineMap(
                0, 0, [AffineConstantExpr(value)])
        return shared

    # -- queries ---------------------------------------------------------------

    @property
    def num_results(self) -> int:
        return len(self.results)

    def is_identity(self) -> bool:
        if self.num_results != self.num_dims:
            return False
        return all(
            isinstance(expr, AffineDimExpr) and expr.position == i
            for i, expr in enumerate(self.results)
        )

    def is_constant(self) -> bool:
        return all(expr.is_constant() for expr in self.results)

    def constant_results(self) -> tuple[int, ...]:
        if not self.is_constant():
            raise ValueError("map is not constant")
        return tuple(expr.value for expr in self.results)  # type: ignore[attr-defined]

    def is_single_constant(self) -> bool:
        return self.single_constant is not None

    def single_constant_result(self) -> int:
        if self.single_constant is None:
            raise ValueError("map does not have a single constant result")
        return self.single_constant

    def used_dims(self) -> set[int]:
        used: set[int] = set()
        for expr in self.results:
            used |= expr.used_dims()
        return used

    def used_symbols(self) -> set[int]:
        used: set[int] = set()
        for expr in self.results:
            used |= expr.used_symbols()
        return used

    # -- evaluation and composition ---------------------------------------------

    def evaluate(self, dims: Sequence[int], symbols: Sequence[int] = ()) -> tuple[int, ...]:
        """Evaluate every result expression for concrete input values."""
        if len(dims) != self.num_dims:
            raise ValueError(f"expected {self.num_dims} dims, got {len(dims)}")
        if len(symbols) != self.num_symbols:
            raise ValueError(f"expected {self.num_symbols} symbols, got {len(symbols)}")
        return tuple(expr.evaluate(dims, symbols) for expr in self.results)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """Return ``self ∘ other``, i.e. ``self(other(dims))``.

        The number of results of ``other`` must equal the number of dims of
        ``self``.  Symbols of both maps are concatenated (self's symbols
        first).
        """
        if other.num_results != self.num_dims:
            raise ValueError(
                f"cannot compose: inner map produces {other.num_results} results "
                f"but outer map expects {self.num_dims} dims"
            )
        shifted_other = [
            expr.replace({}, {s: AffineSymbolExpr(s + self.num_symbols)
                              for s in expr.used_symbols()})
            for expr in other.results
        ]
        results = [
            expr.replace(list(shifted_other))
            for expr in self.results
        ]
        return AffineMap(other.num_dims, self.num_symbols + other.num_symbols, results)

    def get_sub_map(self, positions: Sequence[int]) -> "AffineMap":
        return AffineMap(self.num_dims, self.num_symbols,
                         [self.results[p] for p in positions])

    # -- comparison / printing --------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineMap):
            return NotImplemented
        return (self.num_dims == other.num_dims
                and self.num_symbols == other.num_symbols
                and self.results == other.results)

    def __hash__(self) -> int:
        return hash((self.num_dims, self.num_symbols, self.results))

    def __str__(self) -> str:
        # Cached: maps are immutable and str() is called per memory access by
        # the cleanup passes' access keys, not just for printing.
        cached = self.__dict__.get("_str")
        if cached is not None:
            return cached
        dims = ", ".join(f"d{i}" for i in range(self.num_dims))
        syms = ", ".join(f"s{i}" for i in range(self.num_symbols))
        head = f"({dims})"
        if syms:
            head += f"[{syms}]"
        body = ", ".join(str(expr) for expr in self.results)
        self._str = rendered = f"affine_map<{head} -> ({body})>"
        return rendered

    def __repr__(self) -> str:
        return str(self)

    def __getstate__(self) -> dict:
        # No print cache, and nothing derived from the results: a module
        # pickles the same printed or not.
        state = self.__dict__.copy()
        state.pop("_str", None)
        state.pop("single_constant", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.single_constant = _single_constant(self.results)


def _single_constant(results: tuple[AffineExpr, ...]) -> Optional[int]:
    if len(results) == 1 and isinstance(results[0], AffineConstantExpr):
        return results[0].value
    return None


#: The map :meth:`AffineMap.constant_map` returns, per value.
_CONSTANT_MAPS: dict[int, AffineMap] = {}

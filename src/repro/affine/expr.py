"""Affine expressions.

An affine expression is built from dimension identifiers (``d0``, ``d1``, ...),
symbol identifiers (``s0``, ``s1``, ...), integer constants and the operators
``+``, ``-``, ``*`` (by a constant), ``mod``, ``floordiv`` and ``ceildiv``
(by a positive constant).  Expressions are immutable and hashable; light
simplification (constant folding, identity/zero elimination) is applied at
construction time so that structurally equal expressions compare equal in the
common cases the compiler cares about.
"""

from __future__ import annotations

import enum
from typing import Mapping, Sequence


class AffineExprKind(enum.Enum):
    """Kinds of affine expression nodes."""

    DIM = "dim"
    SYMBOL = "symbol"
    CONSTANT = "constant"
    ADD = "add"
    MUL = "mul"
    MOD = "mod"
    FLOORDIV = "floordiv"
    CEILDIV = "ceildiv"


class AffineExpr:
    """Base class of all affine expression nodes."""

    kind: AffineExprKind

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def get_dim(position: int) -> "AffineDimExpr":
        return AffineDimExpr(position)

    @staticmethod
    def get_symbol(position: int) -> "AffineSymbolExpr":
        return AffineSymbolExpr(position)

    @staticmethod
    def get_constant(value: int) -> "AffineConstantExpr":
        return AffineConstantExpr(value)

    # -- arithmetic operators --------------------------------------------------

    def __add__(self, other) -> "AffineExpr":
        return _make_add(self, _wrap(other))

    def __radd__(self, other) -> "AffineExpr":
        return _make_add(_wrap(other), self)

    def __sub__(self, other) -> "AffineExpr":
        return _make_add(self, _make_mul(_wrap(other), AffineConstantExpr(-1)))

    def __rsub__(self, other) -> "AffineExpr":
        return _make_add(_wrap(other), _make_mul(self, AffineConstantExpr(-1)))

    def __mul__(self, other) -> "AffineExpr":
        return _make_mul(self, _wrap(other))

    def __rmul__(self, other) -> "AffineExpr":
        return _make_mul(_wrap(other), self)

    def __neg__(self) -> "AffineExpr":
        return _make_mul(self, AffineConstantExpr(-1))

    def __mod__(self, other) -> "AffineExpr":
        return _make_binary(AffineExprKind.MOD, self, _wrap(other))

    def floordiv(self, other) -> "AffineExpr":
        return _make_binary(AffineExprKind.FLOORDIV, self, _wrap(other))

    def ceildiv(self, other) -> "AffineExpr":
        return _make_binary(AffineExprKind.CEILDIV, self, _wrap(other))

    def __floordiv__(self, other) -> "AffineExpr":
        return self.floordiv(other)

    # -- queries ---------------------------------------------------------------

    def is_constant(self) -> bool:
        return isinstance(self, AffineConstantExpr)

    def is_pure_affine(self) -> bool:
        """Return True if the expression is affine in its dims and symbols.

        Multiplication must have at least one constant operand and ``mod`` /
        ``floordiv`` / ``ceildiv`` must have a constant right-hand side.
        """
        if isinstance(self, (AffineDimExpr, AffineSymbolExpr, AffineConstantExpr)):
            return True
        assert isinstance(self, AffineBinaryExpr)
        lhs, rhs = self.lhs, self.rhs
        if not (lhs.is_pure_affine() and rhs.is_pure_affine()):
            return False
        if self.kind is AffineExprKind.ADD:
            return True
        if self.kind is AffineExprKind.MUL:
            return lhs.is_constant() or rhs.is_constant()
        # mod / floordiv / ceildiv
        return rhs.is_constant()

    def evaluate(self, dims: Sequence[int], symbols: Sequence[int] = ()) -> int:
        """Evaluate the expression for concrete dim and symbol values."""
        if isinstance(self, AffineDimExpr):
            return int(dims[self.position])
        if isinstance(self, AffineSymbolExpr):
            return int(symbols[self.position])
        if isinstance(self, AffineConstantExpr):
            return self.value
        assert isinstance(self, AffineBinaryExpr)
        lhs = self.lhs.evaluate(dims, symbols)
        rhs = self.rhs.evaluate(dims, symbols)
        if self.kind is AffineExprKind.ADD:
            return lhs + rhs
        if self.kind is AffineExprKind.MUL:
            return lhs * rhs
        if self.kind is AffineExprKind.MOD:
            return lhs % rhs
        if self.kind is AffineExprKind.FLOORDIV:
            return lhs // rhs
        if self.kind is AffineExprKind.CEILDIV:
            return -((-lhs) // rhs)
        raise AssertionError(f"unhandled kind {self.kind}")

    def replace(self, dim_replacements: Mapping[int, "AffineExpr"] | Sequence["AffineExpr"],
                symbol_replacements: Mapping[int, "AffineExpr"] | Sequence["AffineExpr"] = ()) -> "AffineExpr":
        """Substitute dims and symbols with replacement expressions."""
        if isinstance(self, AffineDimExpr):
            repl = _lookup(dim_replacements, self.position)
            return repl if repl is not None else self
        if isinstance(self, AffineSymbolExpr):
            repl = _lookup(symbol_replacements, self.position)
            return repl if repl is not None else self
        if isinstance(self, AffineConstantExpr):
            return self
        assert isinstance(self, AffineBinaryExpr)
        lhs = self.lhs.replace(dim_replacements, symbol_replacements)
        rhs = self.rhs.replace(dim_replacements, symbol_replacements)
        return _make_binary(self.kind, lhs, rhs)

    def shift_dims(self, shift: int) -> "AffineExpr":
        """Return a copy with every dim position increased by ``shift``."""
        if isinstance(self, AffineDimExpr):
            return AffineDimExpr(self.position + shift)
        if isinstance(self, (AffineSymbolExpr, AffineConstantExpr)):
            return self
        assert isinstance(self, AffineBinaryExpr)
        return _make_binary(self.kind, self.lhs.shift_dims(shift), self.rhs.shift_dims(shift))

    def used_dims(self) -> set[int]:
        """Return the set of dim positions referenced by the expression."""
        result: set[int] = set()
        _collect(self, AffineDimExpr, result)
        return result

    def used_symbols(self) -> set[int]:
        """Return the set of symbol positions referenced by the expression."""
        result: set[int] = set()
        _collect(self, AffineSymbolExpr, result)
        return result

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self._k == other._k

    def __hash__(self) -> int:
        return self._h

    def _key(self):
        # Structural identity, precomputed at construction (expressions are
        # immutable): equality and hashing are hot in access analyses, so
        # they must not rebuild the key tuple recursively per comparison.
        return self._k

    def __repr__(self) -> str:
        return f"AffineExpr({self})"


class AffineDimExpr(AffineExpr):
    """A dimension identifier ``d<position>``."""

    kind = AffineExprKind.DIM

    def __init__(self, position: int):
        if position < 0:
            raise ValueError("dim position must be non-negative")
        self.position = position
        self._k = (self.kind, position)
        self._h = hash(self._k)

    def __str__(self) -> str:
        return f"d{self.position}"


class AffineSymbolExpr(AffineExpr):
    """A symbol identifier ``s<position>``."""

    kind = AffineExprKind.SYMBOL

    def __init__(self, position: int):
        if position < 0:
            raise ValueError("symbol position must be non-negative")
        self.position = position
        self._k = (self.kind, position)
        self._h = hash(self._k)

    def __str__(self) -> str:
        return f"s{self.position}"


class AffineConstantExpr(AffineExpr):
    """An integer constant."""

    kind = AffineExprKind.CONSTANT

    def __init__(self, value: int):
        self.value = int(value)
        self._k = (self.kind, self.value)
        self._h = hash(self._k)

    def __str__(self) -> str:
        return str(self.value)


_BINARY_SYMBOL = {
    AffineExprKind.ADD: "+",
    AffineExprKind.MUL: "*",
    AffineExprKind.MOD: "mod",
    AffineExprKind.FLOORDIV: "floordiv",
    AffineExprKind.CEILDIV: "ceildiv",
}


class AffineBinaryExpr(AffineExpr):
    """A binary affine expression (add, mul, mod, floordiv, ceildiv)."""

    def __init__(self, kind: AffineExprKind, lhs: AffineExpr, rhs: AffineExpr):
        self.kind = kind
        self.lhs = lhs
        self.rhs = rhs
        self._k = (kind, lhs._k, rhs._k)
        self._h = hash(self._k)

    def __str__(self) -> str:
        return f"({self.lhs} {_BINARY_SYMBOL[self.kind]} {self.rhs})"


# -- module-level convenience constructors ------------------------------------


def dim(position: int) -> AffineDimExpr:
    """Shorthand for :meth:`AffineExpr.get_dim`."""
    return AffineDimExpr(position)


def symbol(position: int) -> AffineSymbolExpr:
    """Shorthand for :meth:`AffineExpr.get_symbol`."""
    return AffineSymbolExpr(position)


#: Interned constants: unrolled access analyses materialize the same small
#: integers millions of times; expressions are immutable, so sharing is safe.
_CONSTANT_CACHE: dict[int, AffineConstantExpr] = {}


def constant(value: int) -> AffineConstantExpr:
    """Shorthand for :meth:`AffineExpr.get_constant` (interned)."""
    cached = _CONSTANT_CACHE.get(value)
    if cached is None:
        cached = _CONSTANT_CACHE[value] = AffineConstantExpr(int(value))
    return cached


# -- internal simplification helpers ------------------------------------------


def _wrap(value) -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    if isinstance(value, int):
        return AffineConstantExpr(value)
    raise TypeError(f"cannot build an affine expression from {value!r}")


def _lookup(replacements, position):
    # The sequence case first: callers substitute from a list or tuple nearly
    # always, and ``isinstance(x, Mapping)`` is an ABC instance check per dim.
    if isinstance(replacements, (list, tuple)) \
            or not isinstance(replacements, Mapping):
        if 0 <= position < len(replacements):
            return replacements[position]
        return None
    return replacements.get(position)


def _collect(expr: AffineExpr, node_type, out: set[int]) -> None:
    if isinstance(expr, node_type):
        out.add(expr.position)
    elif isinstance(expr, AffineBinaryExpr):
        _collect(expr.lhs, node_type, out)
        _collect(expr.rhs, node_type, out)


def _make_add(lhs: AffineExpr, rhs: AffineExpr) -> AffineExpr:
    if isinstance(lhs, AffineConstantExpr) and isinstance(rhs, AffineConstantExpr):
        return AffineConstantExpr(lhs.value + rhs.value)
    if isinstance(lhs, AffineConstantExpr) and lhs.value == 0:
        return rhs
    if isinstance(rhs, AffineConstantExpr) and rhs.value == 0:
        return lhs
    # Canonical form: constants to the right.
    if isinstance(lhs, AffineConstantExpr):
        lhs, rhs = rhs, lhs
    return AffineBinaryExpr(AffineExprKind.ADD, lhs, rhs)


def _make_mul(lhs: AffineExpr, rhs: AffineExpr) -> AffineExpr:
    if isinstance(lhs, AffineConstantExpr) and isinstance(rhs, AffineConstantExpr):
        return AffineConstantExpr(lhs.value * rhs.value)
    if isinstance(lhs, AffineConstantExpr):
        lhs, rhs = rhs, lhs
    if isinstance(rhs, AffineConstantExpr):
        if rhs.value == 0:
            return AffineConstantExpr(0)
        if rhs.value == 1:
            return lhs
    return AffineBinaryExpr(AffineExprKind.MUL, lhs, rhs)


def _make_binary(kind: AffineExprKind, lhs: AffineExpr, rhs: AffineExpr) -> AffineExpr:
    if kind is AffineExprKind.ADD:
        return _make_add(lhs, rhs)
    if kind is AffineExprKind.MUL:
        return _make_mul(lhs, rhs)
    if isinstance(rhs, AffineConstantExpr) and rhs.value <= 0:
        raise ValueError(f"{kind.value} requires a positive constant divisor")
    if isinstance(lhs, AffineConstantExpr) and isinstance(rhs, AffineConstantExpr):
        if kind is AffineExprKind.MOD:
            return AffineConstantExpr(lhs.value % rhs.value)
        if kind is AffineExprKind.FLOORDIV:
            return AffineConstantExpr(lhs.value // rhs.value)
        if kind is AffineExprKind.CEILDIV:
            return AffineConstantExpr(-((-lhs.value) // rhs.value))
    if isinstance(rhs, AffineConstantExpr) and rhs.value == 1:
        if kind is AffineExprKind.MOD:
            return AffineConstantExpr(0)
        return lhs
    return AffineBinaryExpr(kind, lhs, rhs)

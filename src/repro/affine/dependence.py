"""Memory dependence analysis over affine accesses.

The loop-order optimization pass and the pipeline II estimation both need to
know, for a band of loops, which loops *carry* a dependence between a write
and another access of the same buffer, and with what iteration distance.

The model is intentionally simple but conservative: accesses whose index
expressions are not linear in the band's induction variables, or whose
coefficient structure differs, are treated as having an unknown ("free")
dependence along every loop, which forces the consumers to assume a carried
dependence of distance one.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.affine.analysis import linearize
from repro.affine.expr import AffineExpr

#: Marker distance for "the dependence may be carried with any distance".
FREE = "free"


@dataclasses.dataclass
class MemoryAccess:
    """One memory access inside a loop band.

    ``memref`` identifies the accessed buffer (any hashable object — in
    practice the SSA :class:`~repro.ir.value.Value` of the memref).
    ``indices`` are affine expressions over the band's induction variables,
    outermost loop first.
    """

    memref: object
    indices: tuple[AffineExpr, ...]
    is_write: bool
    op: object = None

    def __post_init__(self):
        self.indices = tuple(self.indices)


@dataclasses.dataclass
class Dependence:
    """A dependence between two accesses with per-loop distances.

    ``distances[d]`` is either an integer iteration distance along loop ``d``
    or the string ``"free"`` meaning any distance (the accesses hit the same
    address regardless of that loop's induction variable).
    """

    source: MemoryAccess
    target: MemoryAccess
    distances: tuple[object, ...]

    def carried_by(self, loop_dim: int) -> bool:
        """Return True if the dependence is carried by loop ``loop_dim``."""
        distance = self.distances[loop_dim]
        if distance == FREE:
            return True
        return distance != 0

    def distance_along(self, loop_dim: int) -> int:
        """Minimal positive carried distance along ``loop_dim`` (1 if free)."""
        distance = self.distances[loop_dim]
        if distance == FREE:
            return 1
        return abs(int(distance))


def dependence_distance(source: MemoryAccess, target: MemoryAccess,
                        num_dims: int) -> Optional[Dependence]:
    """Compute the dependence between two accesses, if any.

    Returns ``None`` when the accesses provably never conflict (different
    buffers, both reads, or incompatible constant offsets), otherwise a
    :class:`Dependence` with per-loop distances.
    """
    if source.memref is not target.memref and source.memref != target.memref:
        return None
    if not source.is_write and not target.is_write:
        return None
    if len(source.indices) != len(target.indices):
        return _conservative(source, target, num_dims)

    src_lin = [linearize(expr, num_dims) for expr in source.indices]
    dst_lin = [linearize(expr, num_dims) for expr in target.indices]
    if any(entry is None for entry in src_lin) or any(entry is None for entry in dst_lin):
        return _conservative(source, target, num_dims)

    # Coefficient structure must match for the simple distance solve below.
    for (src_coeffs, _), (dst_coeffs, _) in zip(src_lin, dst_lin):
        if src_coeffs != dst_coeffs:
            return _conservative(source, target, num_dims)

    distances: list[object] = [FREE] * num_dims
    determined: dict[int, int] = {}
    for (coeffs, src_const), (_, dst_const) in zip(src_lin, dst_lin):
        nonzero = [d for d, c in enumerate(coeffs) if c != 0]
        offset = src_const - dst_const
        if not nonzero:
            if offset != 0:
                # Constant, differing addresses in this dimension: no conflict.
                return None
            continue
        if len(nonzero) == 1:
            d = nonzero[0]
            coeff = coeffs[d]
            if offset % coeff != 0:
                return None
            distance = offset // coeff
            if d in determined and determined[d] != distance:
                return None
            determined[d] = distance
        # Multiple coupled dims (e.g. flattened i*T + ii): leave them "free",
        # which is conservative.

    for d, distance in determined.items():
        distances[d] = distance
    # Dims referenced by the accesses but not pinned above stay FREE only if
    # their coefficient is zero everywhere; a dim with a nonzero coefficient
    # that was pinned is already in `determined`.
    for d in range(num_dims):
        if d in determined:
            continue
        referenced = any(coeffs[d] != 0 for coeffs, _ in src_lin)
        if referenced:
            # Coupled dim; stay conservative.
            distances[d] = FREE
        else:
            distances[d] = FREE
    # Dims with zero coefficients everywhere genuinely leave the address
    # unchanged -> dependence is carried with any distance, hence FREE.
    return Dependence(source, target, tuple(distances))


def _conservative(source: MemoryAccess, target: MemoryAccess, num_dims: int) -> Dependence:
    return Dependence(source, target, tuple([FREE] * num_dims))


def accesses_conflict(a: MemoryAccess, b: MemoryAccess, num_dims: int) -> bool:
    """Return True unless the two accesses provably never touch the same address."""
    if a.memref is not b.memref and a.memref != b.memref:
        return False
    if not a.is_write and not b.is_write:
        return False
    return dependence_distance(a, b, num_dims) is not None


def all_dependences(accesses: Sequence[MemoryAccess], num_dims: int) -> list[Dependence]:
    """All pairwise dependences among ``accesses`` (at least one write per pair)."""
    found: list[Dependence] = []
    for i, src in enumerate(accesses):
        for dst in accesses[i:]:
            if not src.is_write and not dst.is_write:
                continue
            dep = dependence_distance(src, dst, num_dims)
            if dep is not None:
                found.append(dep)
    return found


def loops_carrying_dependence(accesses: Sequence[MemoryAccess], num_dims: int) -> set[int]:
    """The set of loop dims that carry at least one dependence.

    A loop carries a dependence when a write and another access of the same
    buffer resolve to the same address for different values of that loop's
    induction variable — the classic reduction pattern ``C[i][j] += ...``
    inside a ``k`` loop carries a dependence on ``k``.
    """
    carrying: set[int] = set()
    for dep in all_dependences(accesses, num_dims):
        src_dims = set().union(*[expr.used_dims() for expr in dep.source.indices]) \
            if dep.source.indices else set()
        dst_dims = set().union(*[expr.used_dims() for expr in dep.target.indices]) \
            if dep.target.indices else set()
        referenced = src_dims | dst_dims
        for d in range(num_dims):
            distance = dep.distances[d]
            if distance == FREE:
                if d not in referenced:
                    carrying.add(d)
            elif distance != 0:
                carrying.add(d)
    return carrying


def minimum_carried_distance(accesses: Sequence[MemoryAccess], num_dims: int,
                             loop_dim: int) -> Optional[int]:
    """Minimal positive dependence distance carried by ``loop_dim``.

    Returns ``None`` if no dependence is carried by the loop (pipelining the
    loop is then constrained only by resources).
    """
    best: Optional[int] = None
    for dep in all_dependences(accesses, num_dims):
        if not dep.carried_by(loop_dim):
            continue
        referenced = set()
        for expr in dep.source.indices + dep.target.indices:
            referenced |= expr.used_dims()
        distance = dep.distances[loop_dim]
        if distance == FREE and loop_dim in referenced:
            # Coupled but unresolved: assume distance one (conservative).
            candidate = 1
        elif distance == FREE:
            candidate = 1
        else:
            candidate = abs(int(distance))
            if candidate == 0:
                continue
        best = candidate if best is None else min(best, candidate)
    if best is not None:
        return best
    return None

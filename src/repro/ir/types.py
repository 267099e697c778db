"""The type system of the IR.

Types are immutable and compared structurally.  The set mirrors the MLIR
types ScaleHLS relies on: integers, floats, index, function types, ranked
tensors (graph level) and memrefs (loop/directive level).  A
:class:`MemRefType` additionally carries the affine *layout map* and the
*memory space* integer that ScaleHLS uses to encode array partitioning and
the resource/interface directives (paper Section IV-C).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.affine.map import AffineMap


class Type:
    """Base class for all types."""

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if not isinstance(other, Type):
            return NotImplemented
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def __repr__(self) -> str:
        return str(self)


class NoneType(Type):
    """The unit type (no value)."""

    def _key(self):
        return ()

    def __str__(self) -> str:
        return "none"


class IndexType(Type):
    """The type of loop induction variables and memory indices."""

    def _key(self):
        return ()

    def __str__(self) -> str:
        return "index"


class IntegerType(Type):
    """A fixed-width integer type, e.g. ``i1`` or ``i32``."""

    def __init__(self, width: int, signed: bool = True):
        if width <= 0:
            raise ValueError("integer width must be positive")
        self.width = int(width)
        self.signed = bool(signed)

    def _key(self):
        return (self.width, self.signed)

    def __str__(self) -> str:
        prefix = "i" if self.signed else "ui"
        return f"{prefix}{self.width}"


class FloatType(Type):
    """An IEEE float type, e.g. ``f32`` or ``f64``."""

    def __init__(self, width: int = 32):
        if width not in (16, 32, 64):
            raise ValueError("float width must be 16, 32 or 64")
        self.width = int(width)

    def _key(self):
        return (self.width,)

    def __str__(self) -> str:
        return f"f{self.width}"


class FunctionType(Type):
    """A function type ``(inputs) -> (results)``."""

    def __init__(self, inputs: Sequence[Type], results: Sequence[Type]):
        self.inputs: tuple[Type, ...] = tuple(inputs)
        self.results: tuple[Type, ...] = tuple(results)

    def _key(self):
        return (self.inputs, self.results)

    def __str__(self) -> str:
        inputs = ", ".join(str(t) for t in self.inputs)
        results = ", ".join(str(t) for t in self.results)
        return f"({inputs}) -> ({results})"


class ShapedType(Type):
    """Common base of tensor and memref types."""

    def __init__(self, shape: Sequence[int], element_type: Type):
        self.shape: tuple[int, ...] = tuple(int(d) for d in shape)
        if any(d <= 0 for d in self.shape):
            raise ValueError("only statically sized, positive dimensions are supported")
        self.element_type = element_type

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        total = 1
        for d in self.shape:
            total *= d
        return total


class TensorType(ShapedType):
    """A ranked tensor type used at the graph level, e.g. ``tensor<1x3x32x32xf32>``."""

    def _key(self):
        return (self.shape, self.element_type)

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"tensor<{dims}x{self.element_type}>"


#: Memory spaces used by ScaleHLS to encode the resource directive.
MEMORY_SPACE_DEFAULT = 0
MEMORY_SPACE_DRAM = 1
MEMORY_SPACE_BRAM_1P = 2
MEMORY_SPACE_BRAM_S2P = 3
MEMORY_SPACE_BRAM_T2P = 4

MEMORY_SPACE_NAMES = {
    MEMORY_SPACE_DEFAULT: "default",
    MEMORY_SPACE_DRAM: "dram",
    MEMORY_SPACE_BRAM_1P: "ram_1p_bram",
    MEMORY_SPACE_BRAM_S2P: "ram_s2p_bram",
    MEMORY_SPACE_BRAM_T2P: "ram_t2p_bram",
}

#: Read/write ports available per physical bank, by memory space.
MEMORY_SPACE_PORTS = {
    MEMORY_SPACE_DEFAULT: 2,
    MEMORY_SPACE_DRAM: 1,
    MEMORY_SPACE_BRAM_1P: 1,
    MEMORY_SPACE_BRAM_S2P: 2,
    MEMORY_SPACE_BRAM_T2P: 2,
}


class PartitionKind:
    """Array partition fashions supported by downstream HLS tools."""

    NONE = "none"
    CYCLIC = "cyclic"
    BLOCK = "block"
    COMPLETE = "complete"


class MemRefType(ShapedType):
    """A memref type with an optional layout map, partition info and memory space.

    ``partition`` is a per-dimension tuple of ``(kind, factor)`` pairs that is
    kept in sync with the layout map: a partitioned memref's layout map has N
    inputs and 2N results (partition indices followed by physical indices).
    """

    def __init__(self, shape: Sequence[int], element_type: Type,
                 layout_map: Optional[AffineMap] = None,
                 memory_space: int = MEMORY_SPACE_BRAM_S2P,
                 partition: Optional[Sequence[tuple[str, int]]] = None):
        super().__init__(shape, element_type)
        self.memory_space = int(memory_space)
        if partition is None:
            partition = tuple((PartitionKind.NONE, 1) for _ in self.shape)
        self.partition: tuple[tuple[str, int], ...] = tuple(
            (str(kind), int(factor)) for kind, factor in partition)
        if len(self.partition) != len(self.shape):
            raise ValueError("partition info must cover every dimension")
        if layout_map is None:
            key = (self.shape, self.partition)
            layout_map = _DEFAULT_LAYOUTS.get(key)
            if layout_map is None:
                layout_map = _DEFAULT_LAYOUTS[key] = build_partition_map(*key)
        self.layout_map = layout_map

    def _key(self):
        return (self.shape, self.element_type, self.layout_map,
                self.memory_space, self.partition)

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        parts = [f"{dims}x{self.element_type}"]
        if not self.layout_map.is_identity() or self.num_partitions > 1:
            parts.append(str(self.layout_map))
        if self.memory_space != MEMORY_SPACE_DEFAULT:
            parts.append(str(self.memory_space))
        return f"memref<{', '.join(parts)}>"

    # -- partition helpers ------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        """Total number of physical banks after partitioning."""
        total = 1
        for _, factor in self.partition:
            total *= max(1, factor)
        return total

    @property
    def ports_per_bank(self) -> int:
        return MEMORY_SPACE_PORTS.get(self.memory_space, 2)

    def with_partition(self, partition: Sequence[tuple[str, int]]) -> "MemRefType":
        """Return a copy with a new partition scheme (layout map rebuilt)."""
        return MemRefType(self.shape, self.element_type, None,
                          self.memory_space, partition)

    def bank_of(self, indices: Sequence[int]) -> tuple[int, ...]:
        """Physical bank (partition index per dim) of a logical element."""
        results = self.layout_map.evaluate(list(indices))
        return tuple(results[: self.rank])


def build_partition_map(shape: Sequence[int], partition: Sequence[tuple[str, int]]) -> AffineMap:
    """Build the ScaleHLS layout map encoding an array-partition scheme.

    For an N-dimensional array the map has N inputs and 2N results; result
    ``i`` is the partition index of dim ``i`` and result ``N + i`` the
    physical index inside the bank (paper Fig. 3).
    """
    from repro.affine.expr import constant, dim as dim_expr

    rank = len(shape)
    partition_exprs = []
    physical_exprs = []
    for i, ((kind, factor), size) in enumerate(zip(partition, shape)):
        d = dim_expr(i)
        factor = max(1, int(factor))
        if kind == PartitionKind.NONE or factor == 1:
            partition_exprs.append(constant(0))
            physical_exprs.append(d)
        elif kind == PartitionKind.CYCLIC:
            partition_exprs.append(d % factor)
            physical_exprs.append(d.floordiv(factor))
        elif kind == PartitionKind.BLOCK:
            block = max(1, -(-size // factor))  # ceil(size / factor)
            partition_exprs.append(d.floordiv(block))
            physical_exprs.append(d % block)
        elif kind == PartitionKind.COMPLETE:
            partition_exprs.append(d)
            physical_exprs.append(constant(0))
        else:
            raise ValueError(f"unknown partition kind {kind!r}")
    return AffineMap(rank, 0, partition_exprs + physical_exprs)


#: The default layout map of every memref type, per (shape, partition):
#: maps are immutable, so all memrefs of one shape and partition share one.
_DEFAULT_LAYOUTS: dict[tuple, AffineMap] = {}


# Convenient singletons.
f32 = FloatType(32)
f64 = FloatType(64)
i1 = IntegerType(1)
i32 = IntegerType(32)
i64 = IntegerType(64)
index = IndexType()
none = NoneType()

"""Regions: ordered lists of blocks owned by an operation."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.block import Block
    from repro.ir.operation import Operation


class Region:
    """A region contains a control-flow graph of blocks and belongs to an operation."""

    __slots__ = ("parent", "blocks")

    def __init__(self, parent: "Operation" = None):
        self.parent: "Operation" = parent
        self.blocks: list["Block"] = []

    # -- block management --------------------------------------------------------

    def add_block(self, block: "Block" = None) -> "Block":
        """Append a block (creating an empty one if none is given)."""
        from repro.ir.block import Block

        if block is None:
            block = Block()
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def front(self) -> "Block":
        """The entry block of the region."""
        if not self.blocks:
            raise IndexError("region has no blocks")
        return self.blocks[0]

    @property
    def back(self) -> "Block":
        if not self.blocks:
            raise IndexError("region has no blocks")
        return self.blocks[-1]

    def empty(self) -> bool:
        return not self.blocks

    # -- traversal ----------------------------------------------------------------

    def walk(self) -> Iterator["Operation"]:
        """Pre-order traversal of every operation nested in this region."""
        for block in self.blocks:
            for op in list(block.operations):
                yield from op.walk()

    def ops(self) -> Iterator["Operation"]:
        """Operations directly contained in this region (all blocks, no nesting)."""
        for block in self.blocks:
            yield from list(block.operations)

    def __iter__(self) -> Iterator["Block"]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return f"Region({len(self.blocks)} blocks)"

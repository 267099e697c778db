"""Textual printing of the IR in an MLIR-like syntax.

The printed form is for humans, diagnostics and tests; the framework does not
round-trip text back into IR (the C front-end and the Python builders are the
ways in).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection

from repro.ir.value import BlockArgument, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.block import Block
    from repro.ir.operation import Operation
    from repro.ir.region import Region


class Printer:
    """Prints operations with stable, per-function SSA value numbering.

    With ``stable_ids=True`` block arguments are numbered by the encounter
    order of their blocks instead of by object identity, so two structurally
    identical IR trees print to byte-identical text (used by the DSE runtime
    to fingerprint kernels across processes and sessions).

    ``elide_attrs`` names attributes left out of every printed operation and
    ``elide_root_attrs`` attributes left out of the printed root only: the
    printer offers the mechanism, and the one caller that decides which
    attributes are mere labels is :func:`repro.dse.space.ir_digest`.
    """

    def __init__(self, indent_width: int = 2, stable_ids: bool = False,
                 elide_attrs: Collection[str] = (),
                 elide_root_attrs: Collection[str] = ()):
        self.indent_width = indent_width
        self.stable_ids = stable_ids
        self.elide_attrs = frozenset(elide_attrs)
        self.elide_root_attrs = frozenset(elide_root_attrs)
        self._root = None
        self._names: dict[Value, str] = {}
        self._block_ids: dict[object, int] = {}
        self._next_id = 0
        self._lines: list[str] = []

    # -- public API -----------------------------------------------------------------

    def print(self, op: "Operation") -> str:
        self._names = {}
        self._block_ids = {}
        self._next_id = 0
        self._lines = []
        self._root = op
        self._print_op(op, 0)
        return "\n".join(self._lines)

    # -- naming ----------------------------------------------------------------------

    def _block_scope(self, block) -> int:
        if self.stable_ids:
            return self._block_ids.setdefault(block, len(self._block_ids))
        return id(block) % 9973

    def _name_of(self, value: Value) -> str:
        if value not in self._names:
            if isinstance(value, BlockArgument):
                self._names[value] = f"%arg{value.index}_{self._block_scope(value.block)}"
            else:
                self._names[value] = f"%{self._next_id}"
                self._next_id += 1
        return self._names[value]

    def _assign_result_names(self, op: "Operation") -> list[str]:
        return [self._name_of(result) for result in op.results]

    # -- printing ---------------------------------------------------------------------

    def _print_op(self, op: "Operation", depth: int) -> None:
        indent = " " * (depth * self.indent_width)
        results = self._assign_result_names(op)
        prefix = f"{', '.join(results)} = " if results else ""
        operands = ", ".join(self._name_of(v) for v in op.operands)
        attrs = self._format_attributes(op)
        header = f"{indent}{prefix}\"{op.name}\"({operands})"
        if attrs:
            header += f" {attrs}"
        if op.results:
            header += " : " + ", ".join(str(r.type) for r in op.results)
        if not op.regions:
            self._lines.append(header)
            return
        self._lines.append(header + " {")
        for region in op.regions:
            self._print_region(region, depth + 1)
        self._lines.append(f"{indent}}}")

    def _print_region(self, region: "Region", depth: int) -> None:
        indent = " " * (depth * self.indent_width)
        for block_index, block in enumerate(region.blocks):
            if block.arguments or len(region.blocks) > 1:
                args = ", ".join(
                    f"{self._name_of(arg)}: {arg.type}" for arg in block.arguments)
                self._lines.append(f"{indent}^bb{block_index}({args}):")
            for op in block.operations:
                self._print_op(op, depth)

    def _format_attributes(self, op: "Operation") -> str:
        if not op.attributes:
            return ""
        elided = self.elide_attrs
        if op is self._root:
            elided = elided | self.elide_root_attrs
        parts = []
        for key in sorted(op.attributes):
            if key in elided:
                continue
            value = op.attributes[key]
            parts.append(f"{key} = {self._format_attr_value(value)}")
        return "{" + ", ".join(parts) + "}" if parts else ""

    def _format_attr_value(self, value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, str):
            return f'"{value}"'
        if isinstance(value, (list, tuple)):
            return "[" + ", ".join(self._format_attr_value(v) for v in value) + "]"
        if isinstance(value, dict):
            inner = ", ".join(f"{k} = {self._format_attr_value(v)}" for k, v in value.items())
            return "{" + inner + "}"
        return str(value)


def print_op(op: "Operation", stable_ids: bool = False,
             elide_attrs: Collection[str] = (),
             elide_root_attrs: Collection[str] = ()) -> str:
    """Convenience wrapper: print a single operation tree."""
    return Printer(stable_ids=stable_ids, elide_attrs=elide_attrs,
                   elide_root_attrs=elide_root_attrs).print(op)

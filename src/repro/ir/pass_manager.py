"""Passes and the pass manager.

A :class:`Pass` transforms (or analyses) one operation — usually a
``builtin.module`` or a ``func.func``.  Passes declare typed options
(:class:`PassOption`) so they can be constructed from, and printed back to,
the textual pipeline syntax of :mod:`repro.ir.pass_registry`.

The :class:`PassManager` runs a pipeline — a sequence of passes and nested
:class:`AnchoredPipeline` groups — over a module, optionally verifying after
each pass (dumping the offending IR on failure).  It keeps no timing state:
under an :mod:`repro.obs` session each pass run is one ``pass.<name>`` span
whose ``pipeline`` argument is the ``name{options}`` string (the record the
``--print-pass-timing`` table, the paper's ``-pass-timing``, is grouped
from) and one ``pass.seconds.<name>`` counter increment (the aggregate:
option strings are unbounded in a sweep — one ``design-point-suffix{...}``
per design point — names are not).  With no session a pass run reads no
clock and renders no option string.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from repro import obs
from repro.ir.verifier import VerificationError, verify

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.operation import Operation


class PassError(Exception):
    """Raised when a pass fails or its target is not legalizable."""


# -- typed pass options -------------------------------------------------------------------


class PassOption:
    """One declared, textually settable option of a pass.

    ``type`` is one of ``"int"``, ``"bool"``, ``"str"`` or ``"int-list"``;
    ``attr`` names the constructor keyword / instance attribute backing the
    option (defaults to the option name with dashes replaced by underscores).
    """

    TYPES = ("int", "bool", "str", "int-list")

    def __init__(self, name: str, type: str = "str", default: Any = None,
                 attr: Optional[str] = None, help: str = ""):
        if type not in self.TYPES:
            raise ValueError(f"unknown option type {type!r}; choose from {self.TYPES}")
        self.name = name
        self.type = type
        self.default = default
        self.attr = attr or name.replace("-", "_")
        self.help = help

    # -- parsing ---------------------------------------------------------------------------

    def parse(self, segments: Sequence[str], pass_name: str) -> Any:
        """Convert raw ``{key=value}`` segments to the option's python value."""
        if self.type == "int-list":
            try:
                return tuple(int(segment) for segment in segments)
            except ValueError:
                raise PassError(
                    f"option '{self.name}' of pass '{pass_name}' expects a "
                    f"comma-separated list of integers, got "
                    f"'{','.join(segments)}'") from None
        if self.type == "bool" and not segments:
            return True  # bare flag: {insert-copy}
        if len(segments) != 1:
            raise PassError(
                f"option '{self.name}' of pass '{pass_name}' expects a single "
                f"{self.type} value, got '{','.join(segments)}'")
        text = segments[0]
        if self.type == "int":
            try:
                return int(text)
            except ValueError:
                raise PassError(f"option '{self.name}' of pass '{pass_name}' "
                                f"expects an integer, got '{text}'") from None
        if self.type == "bool":
            lowered = text.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise PassError(f"option '{self.name}' of pass '{pass_name}' "
                            f"expects true/false, got '{text}'")
        return text

    def render(self, value: Any) -> str:
        """Canonical textual form of a value (inverse of :meth:`parse`)."""
        if self.type == "bool":
            return "true" if value else "false"
        if self.type == "int-list":
            return ",".join(str(int(v)) for v in value)
        return str(value)

    def is_default(self, value: Any) -> bool:
        if self.type == "int-list":
            mine = tuple(value) if value is not None else None
            them = tuple(self.default) if self.default is not None else None
            return mine == them
        return value == self.default

    def __repr__(self) -> str:
        return f"<PassOption {self.name}: {self.type} = {self.default!r}>"


# -- the pass base classes ----------------------------------------------------------------


class Pass:
    """Base class of transform and analysis passes."""

    #: Registered pass name (set by ``@register_pass``; defaults to the class name).
    name: str = ""

    #: Operation name this pass anchors on ("func.func", "builtin.module", ...).
    #: None means the pass is run directly on whatever op it is given.
    target_op: Optional[str] = "func.func"

    #: Declared textual options, in canonical print order.
    OPTIONS: tuple[PassOption, ...] = ()

    def run(self, op: "Operation") -> None:
        """Transform ``op`` in place.  Subclasses must override."""
        raise NotImplementedError

    def run_on_module(self, module: "Operation") -> None:
        """Run the pass on every matching op nested in ``module``."""
        if self.target_op is None or module.name == self.target_op:
            self.run(module)
            return
        for op in list(module.walk()):
            if op.name == self.target_op:
                self.run(op)

    # -- option plumbing -------------------------------------------------------------------

    @classmethod
    def from_option_strings(cls, options: dict[str, list[str]]) -> "Pass":
        """Construct the pass from raw textual option segments.

        Unknown options and malformed values raise :class:`PassError` with
        the pass and option named.
        """
        declared = {option.name: option for option in cls.OPTIONS}
        kwargs = {}
        for name, segments in options.items():
            option = declared.get(name)
            if option is None:
                known = ", ".join(sorted(declared)) or "none"
                raise PassError(
                    f"pass '{cls.name or cls.__name__}' has no option '{name}' "
                    f"(known options: {known})")
            kwargs[option.attr] = option.parse(segments, cls.name or cls.__name__)
        return cls(**kwargs)

    def option_string(self) -> str:
        """Canonical ``key=value`` text of every non-default option."""
        parts = []
        for option in self.OPTIONS:
            value = getattr(self, option.attr, option.default)
            if option.is_default(value) or value is None:
                continue
            parts.append(f"{option.name}={option.render(value)}")
        return ",".join(parts)

    @property
    def display_name(self) -> str:
        """``name{options}`` — the canonical textual form of this instance.

        Timing rows are keyed by this string, so two instances of the same
        pass with different options are reported separately.
        """
        base = self.name or type(self).__name__
        options = self.option_string()
        return f"{base}{{{options}}}" if options else base

    def __repr__(self) -> str:
        return f"<Pass {self.display_name}>"


class FunctionPass(Pass):
    """A pass anchored on ``func.func`` operations."""

    target_op = "func.func"


class ModulePass(Pass):
    """A pass anchored on the top-level ``builtin.module``."""

    target_op = "builtin.module"


class LambdaPass(Pass):
    """Wraps a plain callable as a pass (handy for tests and pipelines).

    Lambda passes hold arbitrary closures, so unlike registered passes they
    are neither picklable nor expressible in the textual pipeline syntax.
    """

    def __init__(self, fn: Callable[["Operation"], None], name: str = "",
                 target_op: Optional[str] = "func.func"):
        self._fn = fn
        self.name = name or getattr(fn, "__name__", "lambda")
        self.target_op = target_op

    def run(self, op: "Operation") -> None:
        self._fn(op)


# -- IR snapshot dumps --------------------------------------------------------------------


class IRDumper:
    """Writes numbered IR snapshots after selected passes.

    ``pass_names`` holds canonical registry pass names (resolve aliases with
    :func:`repro.ir.pass_registry.pass_aliases` before constructing); an
    empty set dumps after *every* pass.  Snapshots are written to
    ``directory`` as ``NNNN-<pass-name>.mlir`` in execution order, dumping
    the whole run root so nested/anchored pipelines produce module-level
    snapshots (the MLIR ``--mlir-print-ir-after`` behavior the driver's
    ``--dump-ir-after`` mirrors).
    """

    def __init__(self, directory: str, pass_names: Sequence[str] = ()):
        self.directory = directory
        self.pass_names = frozenset(pass_names)
        self.counter = 0
        #: Paths written, in order.
        self.paths: list[str] = []
        #: Pass runs on any thread dump here: a number and its file go together.
        self._lock = threading.Lock()

    def after_pass(self, pass_: Pass, root: "Operation") -> None:
        name = pass_.name or type(pass_).__name__
        if self.pass_names and name not in self.pass_names:
            return
        from repro.ir.printer import print_op

        text = print_op(root)
        slug = name.replace("/", "-")
        with self._lock:
            os.makedirs(self.directory, exist_ok=True)
            self.counter += 1
            path = os.path.join(self.directory,
                                f"{self.counter:04d}-{slug}.mlir")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            self.paths.append(path)


#: Dumpers currently receiving snapshots from every PassManager run.
_ACTIVE_DUMPERS: list[IRDumper] = []


@contextlib.contextmanager
def dump_ir_after(directory: str, pass_names: Sequence[str] = ()):
    """Dump IR snapshots after matching passes executed inside the block."""
    dumper = IRDumper(directory, pass_names)
    _ACTIVE_DUMPERS.append(dumper)
    try:
        yield dumper
    finally:
        _ACTIVE_DUMPERS.remove(dumper)


# -- pipelines ---------------------------------------------------------------------------


class AnchoredPipeline:
    """A nested pipeline anchored on an operation name.

    ``func.func(canonicalize,cse)`` runs the inner pipeline once per
    ``func.func`` op nested under (or equal to) the root, mirroring MLIR's
    ``OpPassManager`` nesting.
    """

    def __init__(self, anchor: str, entries: Sequence["PipelineEntry"] = ()):
        self.anchor = anchor
        self.entries: list[PipelineEntry] = list(entries)

    def to_spec(self) -> str:
        inner = ",".join(_entry_spec(entry) for entry in self.entries)
        return f"{self.anchor}({inner})"

    def __repr__(self) -> str:
        return f"<AnchoredPipeline {self.to_spec()}>"


PipelineEntry = Union[Pass, AnchoredPipeline]


def _entry_spec(entry: PipelineEntry) -> str:
    return entry.to_spec() if isinstance(entry, AnchoredPipeline) else entry.display_name


class PassManager:
    """Runs a pipeline of passes (and nested anchored pipelines) over a module."""

    def __init__(self, passes: Sequence[PipelineEntry] = (), verify_each: bool = False,
                 failure_dump_dir: Optional[str] = None):
        self.passes: list[PipelineEntry] = list(passes)
        self.verify_each = verify_each
        #: Where verify-after-failure IR snapshots are written (a temp file
        #: in the system temp dir when None).
        self.failure_dump_dir = failure_dump_dir

    def add(self, *passes: PipelineEntry) -> "PassManager":
        self.passes.extend(passes)
        return self

    def nest(self, anchor: str) -> AnchoredPipeline:
        """Append and return a nested pipeline anchored on ``anchor``."""
        nested = AnchoredPipeline(anchor)
        self.passes.append(nested)
        return nested

    # -- execution --------------------------------------------------------------------------

    def run(self, module: "Operation") -> "Operation":
        # The run root travels as an argument: a run leaves nothing behind on
        # the manager, which may be a shared ``build_pipeline_cached`` one.
        for entry in self.passes:
            self._run_entry(entry, module, module, anchored=False)
        return module

    def _run_entry(self, entry: PipelineEntry, op: "Operation",
                   root: "Operation", anchored: bool) -> None:
        if not isinstance(entry, AnchoredPipeline):
            self._run_pass(entry, op, root, anchored)
            return
        if op.name == entry.anchor:
            targets = [op]
        else:
            targets = [nested for nested in op.walk()
                       if nested.name == entry.anchor]
        for target in targets:
            for sub_entry in entry.entries:
                self._run_entry(sub_entry, target, root, anchored=True)

    def _run_pass(self, pass_: Pass, op: "Operation", root: "Operation",
                  anchored: bool) -> None:
        run = pass_.run if anchored and pass_.target_op == op.name \
            else pass_.run_on_module
        if obs.active() is None:
            run(op)
        else:
            name = pass_.name or type(pass_).__name__
            started = time.perf_counter()
            with obs.span(f"pass.{name}", pipeline=pass_.display_name,
                          anchor=op.name):
                run(op)
            obs.add_pass_seconds(name, time.perf_counter() - started)
        for dumper in _ACTIVE_DUMPERS:
            dumper.after_pass(pass_, root)
        if self.verify_each:
            # Always the whole run root: an anchored pass that corrupts IR
            # outside its anchor must not escape verification.
            self._verify_after(pass_, root)

    def _verify_after(self, pass_: Pass, op: "Operation") -> None:
        try:
            verify(op)
        except VerificationError as error:
            dump_path = self._dump_ir(pass_, op)
            raise PassError(
                f"IR verification failed after pass '{pass_.display_name}': "
                f"{error} (offending IR dumped to {dump_path})") from error

    def _dump_ir(self, pass_: Pass, op: "Operation") -> str:
        from repro.ir.printer import print_op

        directory = self.failure_dump_dir
        if directory:
            os.makedirs(directory, exist_ok=True)
        slug = (pass_.name or type(pass_).__name__).replace("/", "-")
        fd, path = tempfile.mkstemp(prefix=f"repro-after-{slug}-", suffix=".mlir",
                                    dir=directory or None)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            try:
                handle.write(print_op(op))
            except Exception:  # printing must never mask the verification error
                handle.write("<IR unprintable>")
        return path

    # -- introspection ----------------------------------------------------------------------

    def to_spec(self) -> str:
        """The canonical textual pipeline this manager executes.

        Round-trips through :func:`repro.ir.pass_registry.parse_pipeline` as
        long as every pass is registered (LambdaPass is not).
        """
        return ",".join(_entry_spec(entry) for entry in self.passes)

"""The pass registry and the textual pipeline syntax.

Every transform in :mod:`repro.transforms` (and the frontend raising pass)
registers itself here with ``@register_pass("name")``, so pipelines can be
named, configured, hashed and timed uniformly — the way ScaleHLS drives one
transform library identically from hand-written pass pipelines and the DSE.

Pipeline grammar (a subset of MLIR's textual pipeline syntax)::

    pipeline  := element ("," element)*
    element   := anchor | pass
    anchor    := OP_NAME "(" pipeline ")"          # e.g. func.func(...)
    pass      := PASS_NAME [ "{" options "}" ]
    options   := option ("," option)*
    option    := KEY "=" VALUE ("," VALUE)*  | KEY # bare key = boolean flag

Examples::

    canonicalize,affine-loop-tile{sizes=4,4},loop-pipelining{ii=1}
    builtin.module(func.func(canonicalize,cse))

A comma inside ``{...}`` continues the previous option's value list when the
next segment carries no ``=`` (so ``{sizes=4,4}`` is one list-valued option).
Anchors are operation names (they contain a dot); passes inside an anchor
must target that operation (or the anchor must be ``builtin.module``, which
can reach any nested target).  All syntax and registry errors raise
:class:`~repro.ir.pass_manager.PassError` with an actionable message.
"""

from __future__ import annotations

import dataclasses
import functools as _functools
from typing import Iterator, Sequence, Union

from repro.ir.pass_manager import AnchoredPipeline, Pass, PassError, PassManager

# -- the registry -------------------------------------------------------------------------

_REGISTRY: dict[str, type] = {}
_ALIASES: dict[str, str] = {}
_LOADED = False


def register_pass(name: str, *, aliases: Sequence[str] = ()):
    """Class decorator registering a :class:`Pass` subclass under ``name``.

    The decorated class must be a module-level class (no closures) so that
    registered passes stay picklable — pipeline specs and pass instances are
    shipped to DSE worker processes.
    """

    def decorator(cls):
        if not (isinstance(cls, type) and issubclass(cls, Pass)):
            raise TypeError(f"@register_pass expects a Pass subclass, got {cls!r}")
        cls.name = name
        for key in (name, *aliases):
            existing = _REGISTRY.get(key)
            if existing is not None and existing is not cls:
                raise PassError(
                    f"pass name '{key}' is already registered by "
                    f"{existing.__module__}.{existing.__name__}")
            _REGISTRY[key] = cls
        for alias in aliases:
            _ALIASES[alias] = name
        return cls

    return decorator


def load_all_passes() -> None:
    """Import every package that registers passes (idempotent).

    The loaded flag is only set once the imports succeed: a transform
    package that fails to import must keep raising its real error on every
    lookup instead of leaving a silently partial registry.
    """
    global _LOADED
    if _LOADED:
        return
    import repro.frontend.raise_to_affine  # noqa: F401  (registers raise-scf-to-affine)
    import repro.transforms  # noqa: F401  (registers the transform library)
    _LOADED = True


def get_pass_class(name: str) -> type:
    """Resolve a registered pass name (or alias) to its class."""
    load_all_passes()
    cls = _REGISTRY.get(name)
    if cls is None:
        known = ", ".join(sorted(registered_passes()))
        raise PassError(f"unknown pass '{name}' (registered passes: {known})")
    return cls


def registered_passes() -> dict[str, type]:
    """Canonical name -> class for every registered pass (aliases excluded)."""
    load_all_passes()
    return {name: cls for name, cls in sorted(_REGISTRY.items())
            if name not in _ALIASES}


def pass_aliases() -> dict[str, str]:
    """Alias -> canonical name."""
    load_all_passes()
    return dict(_ALIASES)


# -- pipeline specs -----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PassSpec:
    """One parsed pass invocation: name + raw option segments."""

    name: str
    #: Ordered (option name, raw value segments) pairs, verbatim from the text.
    options: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __str__(self) -> str:
        if not self.options:
            return self.name
        rendered = ",".join(
            f"{key}={','.join(values)}" if values else key
            for key, values in self.options)
        return f"{self.name}{{{rendered}}}"


@dataclasses.dataclass(frozen=True)
class AnchorSpec:
    """A parsed ``op.name( ... )`` nesting."""

    anchor: str
    elements: tuple["SpecElement", ...] = ()

    def __str__(self) -> str:
        return f"{self.anchor}({','.join(str(e) for e in self.elements)})"


SpecElement = Union[PassSpec, AnchorSpec]


@dataclasses.dataclass(frozen=True)
class PipelineSpec:
    """A parsed textual pipeline, ready to build or print."""

    elements: tuple[SpecElement, ...] = ()

    def __str__(self) -> str:
        return ",".join(str(element) for element in self.elements)


# -- parsing ------------------------------------------------------------------------------


class _Cursor:
    """Character cursor over the pipeline text with error context."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        char = self.peek()
        self.pos += 1
        return char

    def skip_spaces(self) -> None:
        while self.peek().isspace():
            self.pos += 1

    def error(self, message: str) -> PassError:
        return PassError(f"pipeline syntax error at position {self.pos}: {message} "
                         f"(in {self.text!r})")


_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def parse_pipeline(text: str) -> PipelineSpec:
    """Parse a textual pipeline into a :class:`PipelineSpec`.

    Raises :class:`PassError` on malformed syntax.  Use
    :func:`build_pipeline` to also resolve names and options against the
    registry.
    """
    cursor = _Cursor(text)
    elements = tuple(_parse_elements(cursor))
    cursor.skip_spaces()
    if cursor.peek():
        raise cursor.error(f"unexpected character {cursor.peek()!r}")
    return PipelineSpec(elements)


def _parse_elements(cursor: _Cursor) -> Iterator[SpecElement]:
    first = True
    while True:
        cursor.skip_spaces()
        if not cursor.peek() or cursor.peek() == ")":
            if first:
                raise cursor.error("expected a pass or anchor name, got nothing")
            return
        if not first:
            if cursor.peek() != ",":
                raise cursor.error(f"expected ',' between pipeline elements, "
                                   f"got {cursor.peek()!r}")
            cursor.advance()
            cursor.skip_spaces()
        first = False
        yield _parse_element(cursor)


def _parse_element(cursor: _Cursor) -> SpecElement:
    name = _parse_ident(cursor)
    cursor.skip_spaces()
    if cursor.peek() == "(":
        if "." not in name:
            raise PassError(
                f"'{name}' cannot anchor a nested pipeline: anchors must be "
                f"operation names such as 'func.func' or 'builtin.module'")
        cursor.advance()
        elements = tuple(_parse_elements(cursor))
        cursor.skip_spaces()
        if cursor.peek() != ")":
            raise cursor.error(f"unbalanced '(' in anchor '{name}': expected ')'")
        cursor.advance()
        return AnchorSpec(name, elements)
    options = ()
    if cursor.peek() == "{":
        options = _parse_options(cursor, name)
    return PassSpec(name, options)


def _parse_ident(cursor: _Cursor) -> str:
    start = cursor.pos
    while cursor.peek() in _IDENT_CHARS and cursor.peek():
        cursor.advance()
    name = cursor.text[start:cursor.pos]
    if not name:
        raise cursor.error(f"expected a pass or anchor name, got {cursor.peek()!r}")
    return name


def _parse_options(cursor: _Cursor,
                   pass_name: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    cursor.advance()  # consume '{'
    start = cursor.pos
    depth = 1
    while depth:
        char = cursor.peek()
        if not char:
            raise cursor.error(f"unbalanced '{{' in options of pass '{pass_name}'")
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
        cursor.advance()
    body = cursor.text[start:cursor.pos - 1].strip()
    if not body:
        raise PassError(f"empty option braces on pass '{pass_name}': write "
                        f"'{pass_name}' or '{pass_name}{{key=value}}'")
    options: list[tuple[str, list[str]]] = []
    for segment in body.split(","):
        segment = segment.strip()
        if "=" in segment:
            key, _, value = segment.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise PassError(f"malformed option '{segment}' on pass "
                                f"'{pass_name}': missing option name before '='")
            options.append((key, [value] if value else []))
        elif options and options[-1][1]:
            # Continuation of the previous option's value list: {sizes=4,4}.
            options[-1][1].append(segment)
        elif segment:
            options.append((segment, []))  # bare boolean flag
        else:
            raise PassError(f"malformed options on pass '{pass_name}': "
                            f"empty segment in '{{{body}}}'")
    return tuple((key, tuple(values)) for key, values in options)


# -- building -----------------------------------------------------------------------------


def build_pipeline(spec: Union[str, PipelineSpec], verify_each: bool = False,
                   failure_dump_dir=None) -> PassManager:
    """Resolve a pipeline spec against the registry into a ready PassManager.

    Validates pass names, option names/values and anchor nesting; every
    failure raises :class:`PassError` naming the offending element.
    """
    if isinstance(spec, str):
        spec = parse_pipeline(spec)
    manager = PassManager(verify_each=verify_each, failure_dump_dir=failure_dump_dir)
    for element in spec.elements:
        manager.passes.append(_build_element(element, enclosing_anchor=None))
    return manager


def _build_element(element: SpecElement, enclosing_anchor):
    if isinstance(element, AnchorSpec):
        _check_anchor_nesting(element.anchor, enclosing_anchor)
        built = AnchoredPipeline(element.anchor)
        for child in element.elements:
            built.entries.append(_build_element(child, enclosing_anchor=element.anchor))
        return built
    cls = get_pass_class(element.name)
    pass_ = cls.from_option_strings(
        {key: list(values) for key, values in element.options})
    if enclosing_anchor is not None and enclosing_anchor != "builtin.module" \
            and pass_.target_op is not None and pass_.target_op != enclosing_anchor:
        raise PassError(
            f"pass '{cls.name}' anchors on '{pass_.target_op}' and cannot run "
            f"inside '{enclosing_anchor}(...)'; nest it under "
            f"'{pass_.target_op}(...)' or the top level instead")
    return pass_


def _check_anchor_nesting(anchor: str, enclosing_anchor) -> None:
    if enclosing_anchor is None:
        return
    if anchor == "builtin.module":
        raise PassError(
            f"cannot nest 'builtin.module(...)' inside '{enclosing_anchor}(...)': "
            f"the module is the outermost operation")
    if enclosing_anchor != "builtin.module":
        raise PassError(
            f"cannot nest '{anchor}(...)' inside '{enclosing_anchor}(...)': only "
            f"'builtin.module' can contain nested anchors")


@_functools.lru_cache(maxsize=256)
def build_pipeline_cached(spec: str) -> PassManager:
    """A memoized :func:`build_pipeline` for hot paths (one parse per spec).

    The returned manager is shared: a run leaves nothing on it (timings go
    to the :mod:`repro.obs` session, the run root travels as an argument),
    so re-running a cached manager is safe.  Its passes are shared too —
    one that carries something out of its run (``array-partition``'s access
    table) is constructed directly by the caller that reads it.
    """
    return build_pipeline(spec)


def pipeline_signature(spec: Union[str, PipelineSpec]) -> str:
    """Canonical printed form of a pipeline — the hashable transform description.

    Parsing, building and re-printing normalizes aliases, option order and
    default values, so two equivalent spellings share one signature.  The
    DSE runtime embeds this in QoR-cache and checkpoint fingerprints: a
    changed transform pipeline can never silently reuse stale estimates.
    """
    return build_pipeline(spec).to_spec()

"""The cleanup pipelines that were built in while the DSE explored them.

``repro.dse.apply.CLEANUP_PIPELINES`` holds one entry since the cleanup was
decided (README "Design space").  Tests that compare cleanups, or need a
space that has the pipeline dimension, register these themselves.
"""

import contextlib

from repro.dse.apply import (
    CLEANUP_PIPELINE,
    CLEANUP_PIPELINES,
    install_cleanup_pipelines,
    register_cleanup_pipeline,
)
from repro.testing import PARENT_TAIL, passes_dropped

#: The former ``light``: one canonicalize + cse round.
LIGHT = "canonicalize,cse"

#: The former ``default``: one store-forwarding round between
#: ``simplify-affine-if`` and a closing ``canonicalize``.
SIX_PASS = ("canonicalize,simplify-affine-if,affine-store-forward,"
            "simplify-memref-access,cse,canonicalize")

#: The passes of ``PARENT_TAIL`` — the former built-in tail (``thorough``
#: before that), ``SIX_PASS`` with a second store-forwarding round, with
#: which the unrolling tests clean their frozen expansions — that today's
#: tail does not run, in its order: they rewrite nothing behind it
#: (``tests/test_cleanup_tail.py``).
DROPPED = passes_dropped(PARENT_TAIL, CLEANUP_PIPELINE)

#: The two tails the ``three_cleanups`` fixture registers.
RETIRED = {"test-light": LIGHT, "test-six-pass": SIX_PASS}

#: Every retired tail, the law of ``TestTheCleanupIsDecided`` compares.
#: ``SHORTER`` are those shorter than the built-in one: they may tie it or
#: read worse, never better.  The others run it and then some, and must
#: read the same.
COMPARED = {**RETIRED, "test-parent-tail": PARENT_TAIL}
SHORTER = {"test-light"}


@contextlib.contextmanager
def registered(pipelines=RETIRED):
    """``pipelines`` registered next to the built-in one, then the registry
    as it was found."""
    saved = dict(CLEANUP_PIPELINES)
    try:
        for name, spec in pipelines.items():
            register_cleanup_pipeline(name, spec)
        yield
    finally:
        install_cleanup_pipelines(saved)

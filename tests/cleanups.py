"""The cleanup pipelines that were built in while the DSE explored them.

``repro.dse.apply.CLEANUP_PIPELINES`` holds one entry since the cleanup was
decided (README "Design space").  Tests that compare cleanups, or need a
space that has the pipeline dimension, register these themselves; the
frozen expansions of the unrolling tests are cleaned by the nine-pass
``PARENT_TAIL``, and the census runs the passes it has and today's tail
has not (``DROPPED``).  Nothing outside ``tests/`` runs any of them.
"""

import contextlib

import pytest

from repro.dse.apply import (
    CLEANUP_PIPELINES,
    install_cleanup_pipelines,
    register_cleanup_pipeline,
)
from repro.kernels import KERNEL_NAMES

#: The former ``light``: one canonicalize + cse round.
LIGHT = "canonicalize,cse"

#: The former ``default``: one store-forwarding round between
#: ``simplify-affine-if`` and a closing ``canonicalize``.
SIX_PASS = ("canonicalize,simplify-affine-if,affine-store-forward,"
            "simplify-memref-access,cse,canonicalize")

#: The former built-in tail (``thorough`` before that): ``SIX_PASS`` with a
#: second store-forwarding round.  The unrolling tests clean their frozen
#: expansions with it, and the block-scan oracle runs it as ``thorough``.
PARENT_TAIL = ("canonicalize,simplify-affine-if,affine-store-forward,"
               "simplify-memref-access,cse,affine-store-forward,"
               "simplify-memref-access,cse,canonicalize")

#: The passes of ``PARENT_TAIL`` after the four of ``CLEANUP_PIPELINE``, in
#: its order: they rewrite nothing behind today's tail
#: (``tests/test_cleanup_tail.py``).
DROPPED = ("simplify-affine-if", "affine-store-forward",
           "simplify-memref-access", "cse", "canonicalize")

#: The two tails the ``three_cleanups`` fixture registers.
RETIRED = {"test-light": LIGHT, "test-six-pass": SIX_PASS}

#: The Table III kernels as rows of the tail's oracles over every prefix,
#: tiling and pipelined root: gemm's rows take as long as three to five other
#: kernels' rows together, and run under ``-m exhaustive`` only.
TABLE3_ROWS = [pytest.param(kernel, marks=pytest.mark.exhaustive)
               if kernel == "gemm" else kernel for kernel in sorted(KERNEL_NAMES)]

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

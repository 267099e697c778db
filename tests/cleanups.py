"""The cleanup pipelines that were built in while the DSE explored them.

``repro.dse.apply.CLEANUP_PIPELINES`` holds one entry since the cleanup was
decided (README "Design space").  Tests that compare cleanups, or need a
space that has the pipeline dimension, register these themselves.
"""

import contextlib

from repro.dse.apply import (
    CLEANUP_PIPELINES,
    install_cleanup_pipelines,
    register_cleanup_pipeline,
)

#: The former ``light``: one canonicalize + cse round.
LIGHT = "canonicalize,cse"

#: The former ``default``: one store-forwarding round (today's runs two).
SIX_PASS = ("canonicalize,simplify-affine-if,affine-store-forward,"
            "simplify-memref-access,cse,canonicalize")

RETIRED = {"test-light": LIGHT, "test-six-pass": SIX_PASS}


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

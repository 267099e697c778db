"""Shared fixtures for the test suite.

The kernel sources and reference implementations live in
:mod:`repro.testing`; they are re-exported here because test modules do
``from conftest import ...`` and must keep working no matter which
``conftest.py`` (this one or the benchmark harness's) pytest placed first
on ``sys.path``.
"""

from __future__ import annotations

import pytest

from repro.testing import (  # noqa: F401  (re-exported for test modules)
    GEMM_SOURCE,
    SYRK_SOURCE,
    compile_source,
    random_array,
    reference_gemm,
    reference_syrk,
)


@pytest.fixture
def three_cleanups():
    """The built-in cleanup pipeline plus the two retired ones: spaces built
    under it have the pipeline dimension."""
    import cleanups

    with cleanups.registered():
        yield


@pytest.fixture
def syrk_module():
    return compile_source(SYRK_SOURCE, "syrk")


@pytest.fixture
def gemm_module():
    return compile_source(GEMM_SOURCE, "gemm")

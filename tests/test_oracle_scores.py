"""Every seeded defect of ``benchmarks/oracle_scores.py`` still applies to
``src/``: ``oracle_scores.defective`` stops unless the defect's line is once
in its file and the file with the defect in it compiles."""

import importlib.util
import os

import pytest

_SPEC = importlib.util.spec_from_file_location("_oracle_scores", os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "oracle_scores.py"))
oracle_scores = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle_scores)


@pytest.mark.parametrize("defect", sorted(oracle_scores.DEFECTS))
def test_the_defect_changes_one_line_that_still_compiles(defect):
    oracle_scores.defective(oracle_scores.ROOT, defect)

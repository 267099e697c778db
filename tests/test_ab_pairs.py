"""The claim rule of ``benchmarks/ab_pairs.py``: a change wins at least nine
tenths of its order-alternated pairs, ties counting for neither side, and
its median beats the parent's by more than the parent's quartile spread."""

from __future__ import annotations

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "_ab_pairs", os.path.join(ROOT, "benchmarks", "ab_pairs.py"))
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

#: Ten parent runs: median 1.0, quartiles 0.9775 and 1.0225 (spread 0.045).
PARENT = [0.96, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.04]


def test_nine_wins_and_a_gap_above_the_spread_meet_the_claim():
    change = [value - 0.1 for value in PARENT[:9]] + [PARENT[9] + 0.1]
    judged = ab_pairs.verdict(PARENT, change, "lower")
    assert (judged["wins"], judged["losses"], judged["ties"]) == (9, 1, 0)
    assert judged["spread"] == pytest.approx(0.045)
    assert judged["gap"] > judged["spread"] and judged["met"]


def test_eight_wins_do_not():
    change = [value - 0.1 for value in PARENT[:8]] + [value + 0.1 for value in PARENT[8:]]
    judged = ab_pairs.verdict(PARENT, change, "lower")
    assert judged["wins"] == 8 and not judged["met"]


def test_a_tie_counts_for_neither_side():
    change = [value - 0.1 for value in PARENT[:9]] + [PARENT[9]]
    judged = ab_pairs.verdict(PARENT, change, "lower")
    assert (judged["wins"], judged["losses"], judged["ties"]) == (9, 0, 1)
    assert judged["met"]
    change = [value - 0.1 for value in PARENT[:8]] + PARENT[8:]
    judged = ab_pairs.verdict(PARENT, change, "lower")
    assert (judged["wins"], judged["losses"], judged["ties"]) == (8, 0, 2)
    assert not judged["met"]


def test_every_pair_won_by_less_than_the_spread_does_not():
    change = [value - 0.01 for value in PARENT]
    judged = ab_pairs.verdict(PARENT, change, "lower")
    assert judged["wins"] == 10
    assert judged["gap"] == pytest.approx(0.01) and not judged["met"]


def test_higher_is_better_turns_the_rule_around():
    change = [value + 0.1 for value in PARENT]
    assert ab_pairs.verdict(PARENT, change, "higher")["met"]
    assert not ab_pairs.verdict(PARENT, change, "lower")["met"]
    assert ab_pairs.verdict(PARENT, change, "lower")["losses"] == 10


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        ab_pairs.verdict(PARENT, PARENT[:9], "lower")
    with pytest.raises(ValueError):
        ab_pairs.verdict([], [], "lower")

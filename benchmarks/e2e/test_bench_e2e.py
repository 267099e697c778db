"""Plumbing test of the end-to-end benchmark (collected by the tier-1 command).

Runs ``run.py --smoke`` once -- every workload, timed and traced, at sizes
whose numbers mean nothing -- and checks the shape of what it wrote against
``BENCHMARK.json``.  The benchmark's modules are only ever run as child
processes: their file names (``run``, ``metrics``, ...) are too generic to
import into a pytest session shared with ``tests/``.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_py(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *arguments], cwd=ROOT, text=True,
                          capture_output=True, timeout=170, check=False)


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple[str, dict]:
    path = str(tmp_path_factory.mktemp("bench_e2e") / "smoke.json")
    completed = run_py("--smoke", "--json", path)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    with open(path, encoding="utf-8") as handle:
        return path, json.load(handle)["sets"][0]


def test_benchmark_json_is_within_the_contract(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in declared["workloads"]] == \
        ["kernel_cold", "kernel_pool2", "dnn_cold", "dnn_warm"]
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_smoke_reports_exactly_the_declared_metrics(declared, smoke):
    _, run_set = smoke
    assert run_set["smoke"] is True
    assert {"nproc", "cpu_model", "python", "load_average_at_start",
            "git_sha"} <= set(run_set["machine"])
    expected = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
                1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    seen = set()
    for run in run_set["runs"]:
        seen.add((run["workload"], run["trace"]))
        assert run["correct"] is True and run["failed"] == 0, run["failures"]
        assert run["attempted"] >= 1
        units = {name: measured["unit"] for name, measured in run["metrics"].items()}
        assert units == expected[run["trace"]], (run["workload"], run["trace"])
        assert all(isinstance(measured["value"], (int, float))
                   for measured in run["metrics"].values())
        if run["trace"] == 0:
            assert len(run["samples"]["wall_s"]) >= 1
            assert len(run["samples"]["ready_s"]) >= 1
            assert all(measured["value"] > 0 for measured in run["metrics"].values())
    assert seen == {(w["name"], trace) for w in declared["workloads"]
                    for trace in (0, 1)}


def test_one_workload_ends_with_the_contract_line(declared):
    completed = run_py("--workload", "dnn_warm", "--seed", "5", "--seconds", "0",
                       "--trace", "0", "--smoke")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def test_compare_accepts_equal_sets_and_rejects_a_regression(smoke, tmp_path):
    path, run_set = smoke
    same = run_py("--compare", path, path)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "no regression" in same.stdout and "regressed" not in \
        same.stdout.replace("no regression", "")

    slower = copy.deepcopy(run_set)
    for run in slower["runs"]:
        if run["trace"] == 0 and run["workload"] == "dnn_cold":
            run["metrics"]["wall_s"]["value"] *= 2.0
    doctored = str(tmp_path / "slower.json")
    with open(doctored, "w", encoding="utf-8") as handle:
        json.dump({"sets": [slower]}, handle)
    worse = run_py("--compare", path, doctored)
    assert worse.returncode == 1, worse.stdout + worse.stderr
    assert re.search(r"dnn_cold\s+wall_s.*regressed", worse.stdout)

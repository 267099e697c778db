"""Which tier-1 oracles of the unroller and the cleanup tail catch which
seeded defect, and what each one costs.

Each defect is a one-line change under ``src/`` made in a temporary copy of
the tree, which runs the tier-1 tests of :data:`FILES` and the smoke gates
of :data:`GATES` the clean tree has.  Printed: per test function or gate
that catches a defect, its seconds on the clean tree and ``x`` (every case
failed) or ``failed/cases``.  Exits 1 if a defect is caught by nothing.

    python benchmarks/oracle_scores.py [--tree DIR]
"""

import argparse
import collections
import concurrent.futures
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ElementTree

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = ("tests/test_loop_transforms.py", "tests/test_cleanup_tail.py",
         "tests/test_block_scans.py", "tests/test_evaluation_golden.py")
GATES = ("tail_fixpoint_rewrites", "trmm.simplify_affine_if_rewrites",
         "first_round_deleted_copies")
JOBS = 2  #: defects scored at once, each by one pytest process
UNROLL = "src/repro/transforms/loop/loop_unroll.py"
#: name -> (file, the line as it is, the line as the defect has it).
DEFECTS = {
    "merge-off": (UNROLL, "if not self.nested:", "if True:"),
    "dead-drop-off": (UNROLL, "if is_dead(op):", "if False:"),
    "value-numbers-identity": ("src/repro/transforms/cleanup/cse.py",
                               "return self._number(value)[0]", "return id(value)"),
    "dead-feeders-off": ("src/repro/transforms/cleanup/canonicalize.py",
                         "    stack = list(values)", "    stack = []"),
    "rauw-reversed": ("src/repro/ir/value.py", "in uses.items():",
                      "in reversed(uses.items()):"),
    "light-tail": ("src/repro/dse/apply.py", '"canonicalize,affine-store-forward,'
                   'simplify-memref-access,cse"', '"canonicalize,cse"'),
    "verdict-inverted": (UNROLL, "op.then_block if verdict else",
                         "op.then_block if not verdict else"),
    "forward-past-store": ("src/repro/transforms/cleanup/store_forward.py",
                           "last_store[id(op._operands[1].value)] = "
                           "(access_key(op, 1, numbers), op)",
                           "last_store.setdefault(id(op._operands[1].value), "
                           "(access_key(op, 1, numbers), op))"),
}
GATE_SCRIPT = f"""import json, sys, time; sys.path.insert(0, "benchmarks")
import bench_ir_hotpaths as bench; started = time.perf_counter()
counts, limits = bench.measure_work_counts(), bench.WORK_COUNT_LIMITS
gates = [name for name in {GATES!r} if name in limits]
print(json.dumps([time.perf_counter() - started, gates,
                  [name for name in gates if counts[name] > limits[name]]]))"""


def defective(tree: pathlib.Path, defect: str) -> str:
    """The source of the defect's file in ``tree`` with the defect in it;
    stops if its line is not once in the file or the result does not
    compile, so that what fails under it fails on the defect."""
    path, line, changed = DEFECTS[defect]
    source = pathlib.Path(tree, path).read_text()
    if source.count(line) != 1:
        raise SystemExit(f"{defect}: {line!r} is not once in {path}")
    text = source.replace(line, changed)
    compile(text, path, "exec")
    return text


def score(tree: pathlib.Path, defect: str | None, gates=GATES):
    """``(seconds, cases, failed cases)`` per test function and gate of a
    copy of ``tree`` with ``defect``; a gate run that raises fails ``gates``."""
    seconds, cases, failed = (collections.Counter() for _ in range(3))
    with tempfile.TemporaryDirectory(prefix="oracle-scores-") as directory:
        shutil.copytree(tree, directory, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns(".*", "__pycache__"))
        if defect is not None:
            pathlib.Path(directory, DEFECTS[defect][0]).write_text(
                defective(tree, defect))
        env, report = {**os.environ, "PYTHONPATH": "src"}, f"{directory}/report.xml"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                        "no:cacheprovider", f"--junitxml={report}", *FILES],
                       cwd=directory, env=env, capture_output=True, timeout=3600)
        for case in ElementTree.parse(report).iter("testcase"):
            module, *classes = case.get("classname").split(".")[1:]
            key = "::".join([f"{module}.py", *classes,  # parameters folded
                             re.sub(r"\[.*\]$", "[*]", case.get("name"))])
            seconds[key] += float(case.get("time"))
            cases[key] += 1
            failed[key] += any(case.find(tag) is not None
                               for tag in ("failure", "error"))
        run = subprocess.run([sys.executable, "-c", GATE_SCRIPT], cwd=directory,
                             env=env, capture_output=True, text=True, timeout=600)
        try:
            spent, present, broken = json.loads(run.stdout.splitlines()[-1])
        except (IndexError, ValueError):  # the evaluation itself raised
            spent, present, broken = 0.0, gates, gates
    for name in present:
        seconds[f"gate {name}"], cases[f"gate {name}"] = spent, 1
        failed[f"gate {name}"] += name in broken
    return seconds, cases, +failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=pathlib.Path, default=ROOT,
                        help="checkout to score (default: this one)")
    tree, defects = parser.parse_args(argv).tree, list(DEFECTS)
    seconds, cases, failed = score(tree, None)
    if failed:
        raise SystemExit(f"the clean tree fails: {sorted(failed)}")
    gates = [key[len("gate "):] for key in cases if key.startswith("gate ")]
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        caught = dict(zip(defects, (result[2] for result in pool.map(
            lambda defect: score(tree, defect, gates), defects))))
    print("| test | s | " + " | ".join(defects) + " |\n|---|---:|"
          + "---|" * len(defects))
    idle = [key for key in seconds if not any(caught[d][key] for d in defects)]
    for key in sorted(seconds.keys() - set(idle),
                      key=lambda key: (key.startswith("gate"), -seconds[key])):
        print(f"| {key} | {seconds[key]:.1f} | " + " | ".join(
            "x" if caught[d][key] == cases[key] else
            f"{caught[d][key]}/{cases[key]}" if caught[d][key] else ""
            for d in defects) + " |")
    print(f"| {len(idle)} others | {sum(seconds[key] for key in idle):.1f} |"
          + " |" * len(defects))
    missed = [defect for defect in defects if not caught[defect]]
    print(f"caught {len(defects) - len(missed)} of {len(defects)} defects"
          + (f"; missed {', '.join(missed)}" if missed else ""), file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

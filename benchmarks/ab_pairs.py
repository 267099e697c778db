"""Order-alternated A/B pairs of one end-to-end workload: a parent revision
against the working tree.

    python benchmarks/ab_pairs.py --workload dnn_warm --parent HEAD --pairs 10 --claim wall_s

exports ``--parent REV`` (``git archive``: exactly its committed files, and
no worktree entry left behind in ``.git``) into a temporary directory and runs
``benchmarks/e2e/run.py --workload W --trace 0`` there and in the working
tree, ``--pairs`` times each, the parent first in even pairs and the working
tree first in odd ones.  Each side runs its own ``run.py`` on its own
``src/``.  It prints every end-to-end metric's median and quartiles per side
and, with ``--claim METRIC``, the verdict of the claim rule: the working tree
must win at least nine tenths of the pairs, ties counting for neither, and
its median must beat the parent's by more than the distance between the
parent's quartiles.  It exits 1 when the claim is not met or a run read
incorrect outputs.  ``--dse-seed`` and ``--smoke`` are passed to ``run.py``:
the first re-checks a claim on another trajectory seed, the second is a
plumbing check whose numbers mean nothing.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join("benchmarks", "e2e")


@functools.cache
def _compare():
    """The benchmark's ``compare`` module, loaded under a private name:
    ``compare`` is too generic a module name to import into a shared
    session."""
    spec = importlib.util.spec_from_file_location(
        "_e2e_compare", os.path.join(ROOT, E2E, "compare.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """The benchmark's own quartile rule (``compare.quartiles``)."""
    return _compare().quartiles(samples)


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The claim rule over pairs ``zip(parent, change)`` of one metric.

    ``wins`` counts the pairs the change reads better in (a tie counts for
    neither side); ``gap`` is how much better the change's median is
    (negative: worse); ``spread`` is the parent's interquartile distance.
    The claim is ``met`` with at least nine tenths of the pairs won and a
    gap above the spread.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("a verdict needs the same number (>= 1) of runs per side")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (old - new) > 0 for old, new in zip(parent, change))
    losses = sum(sign * (old - new) < 0 for old, new in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (parent_median - quartiles(change)[1])
    spread = q3 - q1
    return {"pairs": len(parent), "wins": wins, "losses": losses,
            "ties": len(parent) - wins - losses, "gap": gap, "spread": spread,
            "met": 10 * wins >= 9 * len(parent) and gap > spread}


def export(revision: str, destination: str) -> None:
    """The committed files of ``revision`` under ``destination``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", revision],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", destination], input=archive.stdout,
                   check=True)


def run_once(root: str, workload: str, smoke: bool, dse_seed) -> dict:
    """One ``run.py`` of ``workload`` in the tree at ``root``: the contract
    line it printed last."""
    command = [sys.executable, os.path.join(root, E2E, "run.py"),
               "--workload", workload, "--trace", "0"] + (["--smoke"] if smoke else [])
    if dse_seed is not None:
        command += ["--dse-seed", str(dse_seed)]
    completed = subprocess.run(command, cwd=root, text=True,
                               stdout=subprocess.PIPE, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"{' '.join(command)} (in {root}) exited "
                         f"{completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="the revision the working tree is measured against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", metavar="METRIC",
                        help="judge this end-to-end metric by the claim rule")
    parser.add_argument("--dse-seed", type=int, default=None,
                        help="run.py --dse-seed: re-check a claim on a trajectory "
                             "seed not used while the change was written")
    parser.add_argument("--smoke", action="store_true",
                        help="run.py --smoke: plumbing only")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        better = {metric["name"]: metric["better"]
                  for metric in json.load(handle)["end_to_end"]}
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim must name an end-to-end metric: {sorted(better)}")

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as parent_root:
        export(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(roots[side], args.workload, args.smoke,
                                          args.dse_seed))
            shown = args.claim or "wall_s"
            print(f"pair {pair + 1}/{args.pairs} ({order[0]} first): " + ", ".join(
                f"{side} {shown}={runs[side][-1]['metrics'][shown]['value']:.6g}"
                for side in ("parent", "change")), flush=True)

    status = 0
    for side, side_runs in runs.items():
        attempted = sum(run["attempted"] for run in side_runs)
        failed = sum(run["failed"] for run in side_runs)
        correct = all(run["correct"] for run in side_runs)
        status |= not correct
        print(f"{side}: {attempted} operations attempted, {failed} failed, "
              f"outputs {'correct' if correct else 'INCORRECT'}")
    print(f"{'metric':<22} {'side':<7} {'q1':>12} {'median':>12} {'q3':>12}")
    values = {side: {name: [run["metrics"][name]["value"] for run in side_runs]
                     for name in better}
              for side, side_runs in runs.items()}
    for name in better:
        for side in runs:
            q1, median, q3 = quartiles(values[side][name])
            print(f"{name:<22} {side:<7} {q1:>12.6g} {median:>12.6g} {q3:>12.6g}")
    if args.claim is not None:
        judged = verdict(values["parent"][args.claim], values["change"][args.claim],
                         better[args.claim])
        print(f"claim {args.claim} ({better[args.claim]} is better): won "
              f"{judged['wins']} of {judged['pairs']} pairs ({judged['losses']} lost, "
              f"{judged['ties']} tied); median gap {judged['gap']:.6g} against the "
              f"parent's quartile spread {judged['spread']:.6g}: "
              f"{'met' if judged['met'] else 'NOT MET'}")
        status |= not judged["met"]
    return status


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end DSE benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py --workload kernel_cold --seed 1 --seconds 20 --trace 0

runs one workload in its own child process and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Without ``--workload`` every workload is run;
``--json OUT`` writes all results with machine information; ``--compare OLD
NEW`` judges two such files against the bounds in ``BENCHMARK.json``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import compare
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join(metrics.ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: Fresh processes that perform the set-up of a timed run; ``setup_s`` is
#: their median, so one slow interpreter start does not decide it.
SETUP_REPEATS = 3

def spawn_child(arguments: list[str], workdir: str) -> dict:
    """Run ``child.py`` to completion and return the object it printed last."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [SOURCES] + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else []))
    command = [sys.executable, os.path.join(HERE, "child.py"), *arguments,
               "--workdir", workdir, "--spawned-at", repr(time.time())]
    completed = subprocess.run(command, env=environment, stdout=subprocess.PIPE,
                               text=True, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"benchmark child failed with exit code "
                         f"{completed.returncode}: {' '.join(command)}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 dse_seed, smoke: bool) -> dict:
    """One run of one workload; returns the child's result, completed."""
    arguments = ["--workload", name, "--seed", str(seed),
                 "--seconds", repr(seconds), "--trace", str(trace)]
    if dse_seed is not None:
        arguments += ["--dse-seed", str(dse_seed)]
    if smoke:
        arguments.append("--smoke")
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    ready = []
    if not trace and not smoke:
        ready = [spawn_child(arguments + ["--setup-only"], workdir)["ready_s"]
                 for _ in range(SETUP_REPEATS - 1)]
    result = spawn_child(arguments, workdir)
    ready.append(result.pop("ready_s"))
    prepare = result.pop("prepare_s")
    if not trace:
        result["metrics"]["setup_s"]["value"] = statistics.median(ready) + prepare
        result["samples"].update(ready_s=ready, prepare_s=prepare)
    return result


def report(name: str, trace: int, result: dict) -> None:
    print(f"workload {name} ({'traced' if trace else 'timed'}): "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for metric, measured in result["metrics"].items():
        print(f"  {metric:<40} {measured['value']:>16.6g} {measured['unit']}")
    samples = result.get("samples")
    if samples:
        for label, walls in (("at reference speed", samples["wall_s"]),
                             ("as the clock read", samples["wall_raw_s"])):
            q1, median, q3 = compare.quartiles(walls)
            print(f"  wall_s {label}: n={len(walls)} q1={q1:.4f} "
                  f"median={median:.4f} q3={q3:.4f}")
        print(f"  {samples['loops']} calibration loops, "
              f"median {samples['loop_median_s']:.5f} s")


def contract_line(result: dict) -> str:
    return json.dumps({key: result[key]
                       for key in ("correct", "attempted", "failed", "metrics")})


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", metrics.ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False).stdout.strip()
    except OSError:
        sha = ""
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "load_average_at_start": list(os.getloadavg()),
            "git_sha": sha or None}


def append_set(path: str, run_set: dict) -> None:
    """Add ``run_set`` to the ``sets`` of the JSON file at ``path``."""
    sets = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            sets = json.load(handle)["sets"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"sets": sets + [run_set]}, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this workload only (default: all)")
    parser.add_argument("--seed", type=int, default=2022,
                        help="draws the program's inputs (kernel order, check arrays)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of a run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dse-seed", type=int, default=None,
                        help="trajectory seed of the sweeps in place of the fixed "
                             "workloads.DSE_SEED, for re-checking a claim on a second seed")
    parser.add_argument("--smoke", action="store_true",
                        help="plumbing test: tiny sizes, one repetition")
    parser.add_argument("--runs", type=int, default=1,
                        help="timed runs per workload, on seeds --seed, --seed+1, ...")
    parser.add_argument("--json", metavar="OUT",
                        help="append this run set (every result, machine information) "
                             "to the sets of OUT; adds one traced run per workload")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="judge two run sets, each FILE or FILE:INDEX into its sets "
                             "(default 0), against the bounds of BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(args.compare[0], args.compare[1], metrics.declared())

    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(f"the program under test is missing: no {SOURCES}/repro", file=sys.stderr)
        return 2
    benchmark = metrics.declared()
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None \
        else 0.0 if args.smoke else benchmark["run_seconds"]

    document = {"machine": machine_info(), "seconds": seconds,
                "dse_seed": args.dse_seed, "smoke": args.smoke, "runs": []}
    last = None
    for name in [args.workload] if args.workload else names:
        for trace, seed in [(args.trace, args.seed + i) for i in range(args.runs)] \
                + ([(1, args.seed)] if args.json and not args.trace else []):
            last = run_workload(name, seed, seconds, trace, args.dse_seed, args.smoke)
            report(name, trace, last)
            document["runs"].append({"workload": name, "seed": seed, "trace": trace,
                                     **last})
    if args.json:
        append_set(args.json, document)
    if args.workload:
        print(contract_line(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())

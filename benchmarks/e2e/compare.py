"""``run.py --compare OLD.json NEW.json``: judge two sets of runs.

Each argument names one run set ``run.py --json`` wrote, as ``FILE`` or
``FILE:INDEX`` (the first set when no index is given).  For every workload and
end-to-end metric the medians of the timed runs are compared under the
metric's direction and bound from ``BENCHMARK.json``:

* ``ok``          NEW's median is no worse than OLD's by more than the bound;
* ``regressed``   it is worse by more than the bound;
* ``unresolved``  the run-to-run spread of either set (interquartile range
  over median) is wider than the bound, so the sets cannot tell -- unless
  every NEW run reads better than every OLD run, which is ``ok``.

More failed operations in NEW is a regression whatever the timings say.
Per-layer metrics of the traced runs are listed without a verdict.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _load(spec: str) -> dict:
    """{(workload, trace): {metric: [values]}} plus failed counts of the run
    set ``FILE`` or ``FILE:INDEX`` names."""
    path, _, index = spec.rpartition(":") if spec.rpartition(":")[2].isdigit() \
        else (spec, "", "0")
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)["sets"][int(index)]
    values: dict = defaultdict(lambda: defaultdict(list))
    failed: dict = defaultdict(int)
    for run in document["runs"]:
        failed[run["workload"]] += run["failed"]
        for name, measured in run["metrics"].items():
            values[run["workload"], run["trace"]][name].append(measured["value"])
    return {"values": values, "failed": failed}


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def _worsening(old: float, new: float, better: str) -> float:
    """Share of OLD's median by which NEW is worse (negative: better)."""
    if old == 0:
        return 0.0
    return (new - old) / abs(old) if better == "lower" else (old - new) / abs(old)


def judge(old: list[float], new: list[float], better: str, bound: float) -> str:
    old_q1, old_median, old_q3 = quartiles(old)
    new_q1, new_median, new_q3 = quartiles(new)
    spread = max((old_q3 - old_q1) / abs(old_median) if old_median else 0.0,
                 (new_q3 - new_q1) / abs(new_median) if new_median else 0.0)
    if spread > bound:
        clear_win = (max(new) < min(old)) if better == "lower" else (min(new) > max(old))
        return "ok" if clear_win else "unresolved"
    return "regressed" if _worsening(old_median, new_median, better) > bound else "ok"


def main(old_path: str, new_path: str, benchmark: dict) -> int:
    old, new = _load(old_path), _load(new_path)
    regressed = 0
    row = "{:<13} {:<34} {:>12} {:>12} {:>12} {:>12} {:>8}  {}"
    print(row.format("workload", "metric", "old median", "old iqr", "new median",
                     "new iqr", "worse", "verdict"))
    for workload in [entry["name"] for entry in benchmark["workloads"]]:
        verdict = "ok" if new["failed"][workload] <= old["failed"][workload] \
            else "regressed"
        regressed += verdict == "regressed"
        print(row.format(workload, "failed", old["failed"][workload], "",
                         new["failed"][workload], "", "", verdict))
        for metric in benchmark["end_to_end"]:
            before = old["values"][workload, 0].get(metric["name"])
            after = new["values"][workload, 0].get(metric["name"])
            if not before or not after:
                continue
            verdict = judge(before, after, metric["better"], metric["bound"])
            regressed += verdict == "regressed"
            b_q1, b_median, b_q3 = quartiles(before)
            a_q1, a_median, a_q3 = quartiles(after)
            worse = _worsening(b_median, a_median, metric["better"])
            print(row.format(workload, f"{metric['name']} [{metric['unit']}]",
                             f"{b_median:.6g}", f"{b_q3 - b_q1:.3g}",
                             f"{a_median:.6g}", f"{a_q3 - a_q1:.3g}",
                             f"{worse:+.1%}", verdict))
        for metric in benchmark["per_layer"]:
            before = old["values"][workload, 1].get(metric["name"])
            after = new["values"][workload, 1].get(metric["name"])
            if not before or not after:
                continue
            b_median, a_median = statistics.median(before), statistics.median(after)
            worse = _worsening(b_median, a_median, metric["better"])
            print(row.format(workload, f"{metric['name']} [{metric['unit']}]",
                             f"{b_median:.6g}", "", f"{a_median:.6g}", "",
                             f"{worse:+.1%}", "-"))
    print(f"{regressed} regressed" if regressed else "no regression")
    return 1 if regressed else 0

"""Every evaluation of the benchmark's kernel sweeps, pinned after cleanup.

The end-to-end benchmark's kernel workloads sweep one C module holding the
six Table III kernels.  ``tests/golden/kernel_sweep_evaluations.json``
holds, for that module at n = 4 and 8 and DSE seeds 2022, 7 and 11 (the
benchmark's ``KERNEL_BUDGET``), every design point the sweep transformed —
410 evaluations — with the sha256 of what the evaluation's function is
after ``CLEANUP_PIPELINE``: its printed IR and the use order of every
value (``test_loop_transforms._ir_signature``).  A change to how an
evaluation builds its IR must leave every one of them byte-identical.

Regenerate (only for a change that means to move the IR)::

    PYTHONPATH=src python tests/test_evaluation_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib

import pytest

from repro.dse.apply import (
    CLEANUP_PIPELINE,
    design_point_prefix_pass,
    design_point_suffix_pass,
)
from repro.dse.space import KernelDesignPoint
from repro.ir.pass_manager import PassManager
from repro.ir.pass_registry import build_pipeline_cached
from repro.kernels import KERNEL_NAMES, kernel_source
from repro.pipeline import compile_c

from test_loop_transforms import _ir_signature

GOLDEN = pathlib.Path(__file__).parent / "golden" / "kernel_sweep_evaluations.json"
SIZES = (4, 8)
SEEDS = (2022, 7, 11)
#: ``benchmarks/e2e/workloads.py``'s ``KERNEL_BUDGET``.
BUDGET = dict(num_samples=8, max_iterations=12, batch_size=8)


@functools.lru_cache(maxsize=None)
def table3_module(size: int):
    source = "\n".join(kernel_source(name, size) for name in KERNEL_NAMES)
    return compile_c(source, "table3")


def signature_sha256(func_op) -> str:
    printed, uses = _ir_signature(func_op)
    digest = hashlib.sha256(printed.encode("utf-8"))
    digest.update(json.dumps(uses).encode("utf-8"))
    return digest.hexdigest()


def _point(entry) -> KernelDesignPoint:
    lp, rvb, perm, tiles, ii = entry["point"]
    return KernelDesignPoint(lp, rvb, tuple(perm), tuple(tiles), ii)


def cleaned_signature(size: int, function: str, point: KernelDesignPoint) -> str:
    """The sha256 of ``function`` of the size-``size`` module once
    ``point``'s prefix, suffix and ``CLEANUP_PIPELINE`` have run on it."""
    func_op = table3_module(size).clone().function(function)
    build_pipeline_cached("canonicalize").run(func_op)
    PassManager([design_point_prefix_pass(point),
                 design_point_suffix_pass(point)]).run(func_op)
    build_pipeline_cached(CLEANUP_PIPELINE).run(func_op)
    return signature_sha256(func_op)


def swept_points(size: int, seed: int) -> list:
    """(function, point) of every evaluation of one sweep, in order."""
    from repro.dse import apply
    from repro.estimation.platform import XC7Z020
    from repro.pipeline import explore_module_kernels

    evaluated = []
    transform = apply._transform

    def noted(module, point, func_name, snapshots, digest):
        evaluated.append((func_name, point))
        return transform(module, point, func_name, snapshots, digest)

    apply._transform = noted
    try:
        explore_module_kernels(table3_module(size), XC7Z020, jobs=1, seed=seed,
                               **BUDGET)
    finally:
        apply._transform = transform
    return evaluated


def _entry(function: str, point: KernelDesignPoint) -> dict:
    return {"function": function,
            "point": [point.loop_perfectization, point.remove_variable_bound,
                      list(point.perm_map), list(point.tile_sizes),
                      point.target_ii]}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


class TestEveryBenchmarkEvaluation:
    def test_the_golden_covers_every_sweep(self):
        sweeps = _golden()["sweeps"]
        assert sorted(sweeps) == sorted(f"{size}/{seed}" for size in SIZES
                                        for seed in SEEDS)
        assert sum(len(entries) for entries in sweeps.values()) == 410

    def test_ir_and_use_orders_after_cleanup(self):
        computed: dict = {}
        for sweep, entries in sorted(_golden()["sweeps"].items()):
            size = int(sweep.split("/")[0])
            for entry in entries:
                key = (size, entry["function"], json.dumps(entry["point"]))
                if key not in computed:
                    computed[key] = cleaned_signature(size, entry["function"],
                                                      _point(entry))
                assert computed[key] == entry["sha256"], (sweep, entry)

    @pytest.mark.exhaustive
    @pytest.mark.parametrize("size", SIZES)
    def test_the_sweeps_still_evaluate_these_points(self, size):
        sweeps = _golden()["sweeps"]
        for seed in SEEDS:
            assert [_entry(function, point) for function, point
                    in swept_points(size, seed)] \
                == [{"function": entry["function"], "point": entry["point"]}
                    for entry in sweeps[f"{size}/{seed}"]]


def regenerate() -> None:
    sweeps = {}
    for size in SIZES:
        for seed in SEEDS:
            sweeps[f"{size}/{seed}"] = [
                {**_entry(function, point),
                 "sha256": cleaned_signature(size, function, point)}
                for function, point in swept_points(size, seed)]
    lines = [f' "kernels": {json.dumps(list(KERNEL_NAMES))},',
             f' "budget": {json.dumps(BUDGET)},', ' "sweeps": {']
    for number, (sweep, entries) in enumerate(sweeps.items()):
        lines.append(f'  "{sweep}": [')
        lines += [f"   {json.dumps(entry)}," for entry in entries]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("  ]," if number < len(sweeps) - 1 else "  ]")
    GOLDEN.write_text("{\n" + "\n".join(lines) + "\n }\n}\n")


if __name__ == "__main__":
    regenerate()

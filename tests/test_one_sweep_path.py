"""Every sweep takes one route: ``scheduler.explore_kernels`` owns the
backend, the fingerprint and the checkpoint name, and a single kernel
(``explore_kernel``) is a one-task sweep of it."""

import inspect

import pytest

from repro.dse.runtime import KernelTask, SweepConfig
from repro.dse.runtime import scheduler, worker
from repro.dse.space import KernelDesignSpace
from repro.estimation import XC7Z020
from repro.kernels import kernel_source
from repro.pipeline import (
    compile_c,
    compile_kernel,
    explore_dnn,
    explore_kernel,
    explore_module_kernels,
)
from repro.tools.driver import main

BUDGET = dict(num_samples=6, max_iterations=8, batch_size=4, seed=11)


class TestOneKernelIsAOneTaskSweep:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("size", [4, 8])
    def test_explorer_equals_the_module_sweep_of_its_function(self, size,
                                                              jobs):
        module = compile_kernel("gemm", size)
        name = module.functions()[0].get_attr("sym_name")
        alone = explore_kernel(module, XC7Z020, jobs=jobs, **BUDGET)
        swept = explore_module_kernels(module, XC7Z020, jobs=jobs,
                                       func_names=[name], **BUDGET)[name]
        assert alone.records == swept.records
        assert list(alone.records) == list(swept.records)
        assert alone.frontier == swept.frontier
        assert alone.best_record == swept.best_record
        assert alone.fingerprint == swept.fingerprint

    def test_explore_takes_only_what_a_caller_chooses(self):
        assert list(inspect.signature(explore_kernel).parameters) \
            == ["module", "platform", "checkpoint_dir", "func_name",
                "max_evaluations", "keep_design", "sweep"]
        assert list(inspect.signature(scheduler.explore_kernels).parameters) \
            == ["tasks", "platform", "config", "checkpoint_dir"]


@pytest.fixture
def backends(monkeypatch):
    """Every backend a sweep creates, each counting its ``close`` calls."""
    create, made = worker.create_backend, []

    def counted(*args, **kwargs):
        backend = create(*args, **kwargs)
        close = backend.close
        backend.closes = 0

        def counted_close():
            backend.closes += 1
            close()

        backend.close = counted_close
        made.append(backend)
        return backend

    for owner in (worker, scheduler):
        monkeypatch.setattr(owner, "create_backend", counted)
    return made


def _two_kernels():
    return compile_c("\n".join(kernel_source(name, 4)
                               for name in ("gemm", "syrk")), "two")


def _one_task():
    module = compile_kernel("gemm", 4)
    space = KernelDesignSpace.from_function(module.functions()[0])
    return [KernelTask(key="kernel", module=module, func_name=None,
                       space=space)]


SMALL = dict(num_samples=2, max_iterations=2)
ENTRY_POINTS = {
    "explore_kernels": lambda: scheduler.explore_kernels(
        _one_task(), XC7Z020, SweepConfig(**SMALL)),
    "explore_kernel": lambda: explore_kernel(compile_kernel("gemm", 4),
                                             **SMALL),
    "explore_module_kernels": lambda: explore_module_kernels(
        _two_kernels(), **SMALL),
    "explore_module_kernels-jobs2": lambda: explore_module_kernels(
        _two_kernels(), jobs=2, **SMALL),
    "explore_dnn": lambda: explore_dnn("mobilenet", max_nodes=2, **SMALL),
    "dse": lambda: main(["dse", "--kernel", "gemm", "--size", "4",
                         "--samples", "2", "--iterations", "2"]),
    "dse-all-functions": lambda: main(
        ["dse", "--kernel", "gemm", "--size", "4", "--samples", "2",
         "--iterations", "2", "--all-functions"]),
    "dnn-dse": lambda: main(["dnn", "mobilenet", "--dse", "--smoke"]),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_creates_and_closes_one_backend(
        entry, backends, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # dnn --dse writes its frontier file here
    ENTRY_POINTS[entry]()
    capsys.readouterr()
    assert [backend.closes for backend in backends] == [1]

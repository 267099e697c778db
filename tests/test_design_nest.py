"""Which loop nest a design point acts on: :func:`design_nest`.

Every tier reads the one rule — the design space sizes its band on the nest,
the prefix and suffix transform it, program identity plans on it, and a
sweep skips a function without one.  The rule is the first outermost
``affine.for``.  Every Table III kernel has exactly one outermost nest, so
there it is the only nest; a lowered DNN node has several (a conv node's
first is the zero-fill of its output), and the nest that does the work is
the one with the largest trip-count product.
"""

import pytest

from repro.dialects.affine_ops import loop_band_from, outermost_loops
from repro.dse.runtime import SweepConfig
from repro.dse.runtime.model import _staged_tasks
from repro.frontend.models import build_model
from repro.kernels import KERNEL_NAMES
from repro.pipeline import compile_kernel
from repro.transforms.composite import design_nest


def trip_product(nest) -> int:
    """Iterations of the band the design space sizes on ``nest``."""
    product = 1
    for loop in loop_band_from(nest):
        product *= loop.trip_count() or 1
    return product


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_every_table3_kernel_has_one_outermost_nest(name):
    func_op = compile_kernel(name, 8).functions()[0]
    assert outermost_loops(func_op) == [design_nest(func_op)]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="design_nest takes the first outermost nest, which "
                          "in a conv node is the zero-fill of its output")
@pytest.mark.parametrize("model", ["vgg16", "resnet18", "mobilenet"])
def test_a_model_node_is_tuned_on_its_heaviest_nest(model):
    tasks, _, _ = _staged_tasks(build_model(model), 7, SweepConfig())
    representatives = {}
    for task in tasks:
        representatives.setdefault(task.space.ir_digest, task)
    missed = []
    for task in representatives.values():
        func_op = task.module.function(task.func_name)
        # max() keeps the first of equal products: ties go to the first nest.
        heaviest = max(outermost_loops(func_op), key=trip_product)
        if design_nest(func_op) is not heaviest:
            missed.append(task.key)
    assert not missed, f"{len(missed)} of {len(representatives)} classes"

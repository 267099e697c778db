"""Figure 8: ablation study of the DNN optimization levels.

The paper quantifies the contribution of each optimization level by compiling
the DNN models with directive-only (D), loop + directive (Ln + D) and graph +
loop + directive (Gn + Ln + D) configurations, where larger n means larger
unrolling factors / finer dataflow granularity.  The benchmark reproduces the
ablation with a representative subset of the levels and checks the ordering
the paper reports: D < L + D < G + L + D, with the speedup growing with n.

``python benchmarks/bench_fig8_ablation.py --smoke`` runs the ablation of
VGG-16 alone, every configuration and the same shape checks, in seconds
(CI's ``dse-runtime-smoke``).
"""

import argparse

import pytest

from conftest import PAPER_FIG8_AVERAGE, format_row
from repro.frontend.models import build_model
from repro.pipeline import compile_dnn, dnn_baseline

MODELS = ("resnet18", "vgg16", "mobilenet")

#: (label, graph_level, loop_level, directive) configurations, coarse to fine.
CONFIGURATIONS = (
    ("D", 0, 0, True),
    ("L1+D", 0, 1, True),
    ("L3+D", 0, 3, True),
    ("L5+D", 0, 5, True),
    ("G1+L5+D", 1, 5, True),
    ("G3+L5+D", 3, 5, True),
    ("G5+L5+D", 5, 5, True),
)


def ablation(model, model_module):
    """``{label: (speedup over the unoptimized lowering, DSP)}`` per
    configuration."""
    baseline = dnn_baseline(model, model_module=model_module)
    speedups = {}
    for label, graph_level, loop_level, directive in CONFIGURATIONS:
        result = compile_dnn(model, graph_level=graph_level, loop_level=loop_level,
                             directive_level=directive, model_module=model_module)
        speedups[label] = (baseline.qor.interval / result.qor.interval, result.qor.dsp)
    return speedups


def report(speedups) -> None:
    """Print the ablation and check the ordering the paper reports."""
    widths = (12, 16, 10)
    print(format_row(("config", "speedup", "DSP"), widths))
    for label, (speedup, dsp) in speedups.items():
        print(format_row((label, f"{speedup:.1f}x", dsp), widths))
    print(f"\npaper's average contributions: D {PAPER_FIG8_AVERAGE['directive']}x, "
          f"L7 {PAPER_FIG8_AVERAGE['loop_l7']}x, G7 {PAPER_FIG8_AVERAGE['graph_g7']}x")

    # Shape checks reproduced from the paper's ablation:
    # directive-only helps, loop optimization multiplies the gain, larger loop
    # levels help more, and adding the graph level on top helps again.
    assert speedups["D"][0] > 1.0
    assert speedups["L3+D"][0] > speedups["L1+D"][0]
    assert speedups["L5+D"][0] > speedups["D"][0] * 5
    assert speedups["G5+L5+D"][0] > speedups["L5+D"][0]
    assert speedups["G5+L5+D"][0] > speedups["G1+L5+D"][0]


@pytest.mark.parametrize("model", MODELS)
def test_fig8_ablation(benchmark, model, print_header):
    model_module = build_model(model)
    speedups = benchmark.pedantic(ablation, args=(model, model_module),
                                  rounds=1, iterations=1)
    print_header(f"Figure 8 — ablation of {model} (speedup over the unoptimized lowering)")
    report(speedups)
    benchmark.extra_info["speedups"] = {label: round(value[0], 1)
                                        for label, value in speedups.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="VGG-16 only, every configuration: seconds, for CI")
    args = parser.parse_args(argv)
    for model in ("vgg16",) if args.smoke else MODELS:
        print(f"Figure 8 — ablation of {model} (speedup over the unoptimized lowering)")
        report(ablation(model, build_model(model)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

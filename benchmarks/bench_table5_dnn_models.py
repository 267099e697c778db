"""Table V: optimization results of representative DNN models.

For ResNet-18, VGG-16 and MobileNet (CIFAR-10 input shapes) the benchmark
compiles the model with the multi-level optimization (graph + loop +
directive), sweeping a small set of optimization levels and keeping the
fastest configuration that fits one SLR of a VU9P, then reports the Table V
columns: speedup over the non-optimized lowering, compilation runtime,
memory / DSP / LUT utilization, and DSP efficiency compared with TVM-VTA.

``python benchmarks/bench_table5_dnn_models.py --smoke`` prints the table of
VGG-16 alone, every configuration swept and the same shape checks, in
seconds (CI's ``dse-runtime-smoke``).
"""

import argparse

import pytest

from conftest import PAPER_TABLE5, format_row
from repro.estimation import VU9P_SLR
from repro.frontend.models import build_model
from repro.pipeline import compile_dnn, dnn_baseline

MODELS = ("resnet18", "vgg16", "mobilenet")

#: (graph_level, loop_level) configurations swept per model, coarse to fine.
CONFIGURATIONS = ((3, 3), (4, 4), (5, 4))


def best_design(model, model_module):
    """The non-optimized lowering and the fastest configuration that fits."""
    baseline = dnn_baseline(model, model_module=model_module)
    best = None
    for graph_level, loop_level in CONFIGURATIONS:
        candidate = compile_dnn(model, graph_level=graph_level, loop_level=loop_level,
                                directive_level=True, model_module=model_module)
        # Memory is not part of the feasibility check (see the note in
        # report about on-chip weights); DSPs and LUTs are.
        fits = VU9P_SLR.fits(candidate.qor.resources, memory_margin=float("inf"))
        if fits and (best is None or candidate.qor.interval < best.qor.interval):
            best = candidate
    if best is None:
        best = compile_dnn(model, graph_level=3, loop_level=2, directive_level=True,
                           model_module=model_module)
    return baseline, best


def report(model, baseline, best) -> dict:
    """Print the model's rows next to the paper's, check their shape and
    return the figures the pytest-benchmark entry records."""
    speedup = baseline.qor.interval / best.qor.interval
    paper = PAPER_TABLE5[model]
    widths = (26, 22, 22)
    print(format_row(("metric", "paper", "measured"), widths))
    print(format_row(("speedup", f"{paper['speedup']:.1f}x", f"{speedup:.1f}x"), widths))
    print(format_row(("compile runtime", f"{paper['runtime_s']:.1f} s",
                      f"{best.runtime_seconds:.1f} s"), widths))
    print(format_row(("memory", f"{paper['memory_mb']:.1f} Mb",
                      f"{best.qor.memory_bits / 1e6:.1f} Mb"), widths))
    print(format_row(("DSPs", f"{paper['dsp']} ", f"{best.qor.dsp} "), widths))
    print(format_row(("LUTs", f"{paper['lut']} ", f"{best.qor.lut} "), widths))
    print(format_row(("DSP efficiency", f"{paper['dsp_eff']:.3f}",
                      f"{best.dsp_efficiency:.3f}"), widths))
    print(format_row(("TVM-VTA DSP efficiency", f"{paper['vta_dsp_eff']:.3f}", "-"), widths))
    print(f"dataflow stages: {best.num_dataflow_stages}")

    # Shape checks: orders-of-magnitude speedup, compute resources within the
    # SLR.  Memory is reported but not asserted: our lowering keeps every
    # weight on-chip (8-bit), whereas the paper's designs stream part of the
    # weights, so VGG-16's on-chip footprint can exceed one SLR here.
    assert speedup > 50.0
    assert best.qor.dsp <= VU9P_SLR.dsp
    return {"speedup": round(speedup, 1), "paper_speedup": paper["speedup"],
            "dsp": best.qor.dsp, "dsp_efficiency": round(best.dsp_efficiency, 3)}


@pytest.mark.parametrize("model", MODELS)
def test_table5_dnn_model(benchmark, model, print_header):
    model_module = build_model(model)
    baseline, best = benchmark.pedantic(best_design, args=(model, model_module),
                                        rounds=1, iterations=1)
    print_header(f"Table V — {model} on one VU9P SLR")
    benchmark.extra_info.update(report(model, baseline, best))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="VGG-16 only, every configuration: seconds, for CI")
    args = parser.parse_args(argv)
    for model in ("vgg16",) if args.smoke else MODELS:
        print(f"Table V — {model} on one VU9P SLR")
        report(model, *best_design(model, build_model(model)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

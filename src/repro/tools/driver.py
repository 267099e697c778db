"""A command-line driver for the compilation flows.

The original ScaleHLS ships three binaries — ``scalehls-clang`` (the C
front-end), ``scalehls-opt`` (conversion/transform passes) and
``scalehls-translate`` (the C++ emitter).  This driver packages the same
functionality behind one entry point with sub-commands:

``compile``
    Parse an HLS C file (or a named PolyBench kernel), raise it to the affine
    level and print the IR.

``estimate``
    Estimate latency / resources of a kernel, optionally after applying an
    explicit design point.

``dse``
    Run the automated DSE engine on a kernel and print the Pareto frontier
    plus the finalized design.

``emit``
    Apply a design point (or the DSE result) and emit synthesizable HLS C++.

``dnn``
    Compile one of the bundled DNN models with the multi-level optimization
    and report its QoR — or, with ``--dse``, sweep every dataflow node's
    design space through the multi-kernel scheduler and compose the
    model-level Pareto frontier (``--jobs/--cache/--checkpoint`` parity
    with ``dse``, plus ``--smoke`` for a CI-sized sweep).

``list-passes``
    Print every registered pass with its anchor and options, and self-check
    the registry (constructibility, picklability, spec round-trip).

Pass pipelines are first-class: ``compile --pipeline SPEC`` runs a textual
pipeline (e.g. ``"func.func(raise-scf-to-affine,canonicalize)"``) instead of
the default flow, and every sub-command accepts ``--print-pass-timing`` to
emit an MLIR ``-pass-timing`` style report of all passes the flow executed.

Run ``python -m repro.tools.driver <command> --help`` for the options.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional, Sequence

from repro import obs
from repro.dialects.affine_ops import loop_band_from
from repro.dse.apply import apply_design_point, estimate_baseline
from repro.dse.incremental import post_prefix_band
from repro.dse.runtime.faults import EvaluationFailure
from repro.dse.space import KernelDesignPoint
from repro.emit import emit_hlscpp
from repro.estimation import PLATFORMS, XC7Z020
from repro.estimation.platform import Platform, PlatformError, load_platform_config
from repro.ir import print_op, verify
from repro.ir.pass_manager import PassError, dump_ir_after
from repro.kernels import KERNEL_NAMES
from repro.obs.export import write_chrome_trace, write_metrics_json
from repro.obs.report import (
    format_pattern_stats,
    format_timing_report,
    pass_timings_of,
    pattern_stats_of,
    render_run_summary,
)
from repro.pipeline import (DNN_BUDGET, KERNEL_BUDGET, compile_c, compile_dnn,
                            compile_kernel, dnn_baseline)
from repro.transforms.composite import (design_nest, knobs_not_applied,
                                       plan_design_point)


def _resolve_platforms(args, default_name: str) -> list[Platform]:
    """Resolve ``--platform`` / ``--platform-config`` to an ordered target list.

    ``--platform-config`` entries extend (and, on a name collision, override)
    the bundled targets.  Explicit ``--platform`` names select from that
    combined catalog; with none given, a config file's platforms become the
    sweep, and without either the command uses its historical default.
    Duplicates are dropped while preserving first-mention order, so the list
    is a stable part of the design-space fingerprint.
    """
    available = dict(PLATFORMS)
    configured: list[Platform] = []
    config_path = getattr(args, "platform_config", None)
    if config_path:
        try:
            configured = load_platform_config(config_path)
        except PlatformError as error:
            raise SystemExit(f"--platform-config: {error}") from error
        for platform in configured:
            available[platform.name] = platform
    names = list(getattr(args, "platform", None) or [])
    if not names:
        names = [platform.name for platform in configured] or [default_name]
    resolved: list[Platform] = []
    seen: set[str] = set()
    for name in names:
        if name not in available:
            raise SystemExit(f"unknown platform {name!r}; choose from "
                             f"{sorted(available)}")
        if name not in seen:
            seen.add(name)
            resolved.append(available[name])
    return resolved


def _single_platform(args, default_name: str) -> Platform:
    """The one target of a non-sweep command (estimate/emit/dnn compile)."""
    platforms = _resolve_platforms(args, default_name)
    if len(platforms) > 1:
        raise SystemExit(f"{args.command} targets a single platform; got "
                         f"{[platform.name for platform in platforms]} "
                         "(multi-platform sweeps are a dse / dnn --dse feature)")
    return platforms[0]


def _load_module(args) -> "ModuleOp":
    pipeline = getattr(args, "pipeline", None)
    if args.kernel:
        if args.size < 2:
            raise SystemExit(f"--size must be >= 2, got {args.size}")
        return compile_kernel(args.kernel, args.size, pipeline=pipeline)
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            return compile_c(handle.read(), pipeline=pipeline)
    raise SystemExit("either --kernel or an input C file is required")


def _explore_kernel(module, platform, **sweep):
    """:func:`repro.pipeline.explore_kernel`, ending the command with the
    sweep's one-line ``ValueError`` (a kernel without a loop nest to
    explore names itself) instead of a traceback."""
    from repro.pipeline import explore_kernel

    try:
        return explore_kernel(module, platform, **sweep)
    except ValueError as error:
        raise SystemExit(str(error)) from error


def _design_point(args, module, default: bool = False
                  ) -> Optional[KernelDesignPoint]:
    """The design point the point flags spell for ``module``'s kernel: one
    ``--perm`` / ``--tiles`` entry per loop of its band.  Without any point
    flag the result is None or, with ``default``, the untiled point with
    both structural knobs on.  A vector the evaluation will not apply as
    given is reported on stderr."""
    if args.ii < 1:
        raise SystemExit(f"--ii must be >= 1, got {args.ii}")
    flagged = bool(args.tiles or args.perm or args.ii != 1 or args.perfectize
                   or args.rvb)
    if not flagged and not default:
        return None
    nest = design_nest(module.function())
    depth = len(loop_band_from(nest)) if nest is not None else 0

    def vector(flag, text, fallback, expected, valid):
        if not text:
            return fallback
        try:
            values = tuple(int(item) for item in text.split(","))
        except ValueError:
            values = ()
        if len(values) != depth or not valid(values):
            raise SystemExit(f"{flag} expects {expected}, one per loop of the "
                             f"kernel's band ({depth} deep), got {text!r}")
        return values

    point = KernelDesignPoint(
        loop_perfectization=args.perfectize if flagged else True,
        remove_variable_bound=args.rvb if flagged else True,
        perm_map=vector("--perm", args.perm, tuple(range(depth)),
                        f"a permutation of 0..{depth - 1}",
                        lambda values: sorted(values) == list(range(depth))),
        tile_sizes=vector("--tiles", args.tiles, (1,) * depth,
                          f"{depth} positive tile sizes",
                          lambda values: all(v >= 1 for v in values)),
        target_ii=args.ii,
    )
    if args.perm or args.tiles:
        # The flags were checked against the band as written; the evaluation
        # permutes and tiles the perfect band the prefix leaves, by this plan.
        _, shape = post_prefix_band(module, point)
        plan = plan_design_point(shape, point.perm_map, point.tile_sizes)
        perm_dropped, tiles_changed = knobs_not_applied(
            plan, point.perm_map, point.tile_sizes)
        if perm_dropped:
            reason = f"the band is {len(shape)} deep" + (
                "" if args.perfectize else " without --perfectize")
            if len(shape) == depth:
                reason = "a loop of the band has variable bounds" + (
                    "" if args.rvb else " without --rvb")
            print(f"--perm {args.perm} not applied: {reason}", file=sys.stderr)
        if tiles_changed:
            print(f"--tiles {args.tiles} applied as "
                  f"{','.join(map(str, plan[1]))}", file=sys.stderr)
    return point


def _add_kernel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", nargs="?", help="HLS C source file")
    parser.add_argument("--kernel", choices=KERNEL_NAMES,
                        help="use a bundled PolyBench kernel instead of a C file")
    parser.add_argument("--size", type=int, default=256,
                        help="problem size of the bundled kernel (default 256)")
    _add_instrumentation_arguments(parser)


def _add_platform_arguments(parser: argparse.ArgumentParser,
                            default_name: str) -> None:
    parser.add_argument("--platform", action="append", default=None,
                        metavar="NAME",
                        help="target platform name (repeatable for a "
                             "multi-platform dse sweep; default: "
                             f"{default_name})")
    parser.add_argument("--platform-config", metavar="PATH",
                        help="load additional platform definitions from a "
                             "JSON (or YAML, when PyYAML is installed) "
                             "config file; without --platform the file's "
                             "platforms become the target list")


def _add_instrumentation_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--print-pass-timing", action="store_true",
                        help="print an MLIR -pass-timing style report of every "
                             "pass the flow executed, plus per-RewritePattern "
                             "hit/miss statistics")
    parser.add_argument("--dump-ir-after", metavar="PASS", action="append",
                        default=[],
                        help="write a numbered IR snapshot after every "
                             "execution of the named registry pass (repeat "
                             "for several passes; 'all' dumps after every "
                             "pass)")
    parser.add_argument("--dump-ir-dir", metavar="DIR", default="ir-dumps",
                        help="directory receiving --dump-ir-after snapshots "
                             "(default: ir-dumps)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write a Chrome trace-event JSON of the run's "
                             "hierarchical spans (load in Perfetto or "
                             "chrome://tracing)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write the run's metrics (pass timings, pattern "
                             "stats, cache stats, DSE series) as JSON; render "
                             "later with the 'report' sub-command")


def _add_sweep_arguments(parser: argparse.ArgumentParser,
                         defaults: dict) -> None:
    """The flags every sweep (``dse``, ``dnn --dse``) takes, declared once;
    ``defaults`` holds the four budgets whose defaults differ per flow
    (``KERNEL_BUDGET`` or ``DNN_BUDGET`` of :mod:`repro.pipeline`)."""
    parser.add_argument("--samples", type=int,
                        default=defaults["num_samples"],
                        help="initial samples (dnn: the heaviest node's, "
                             "scaled down for light stages)")
    parser.add_argument("--iterations", type=int,
                        default=defaults["max_iterations"],
                        help="frontier-evolution budget (dnn: per node)")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--jobs", type=int, default=1,
                        help="number of parallel evaluation workers")
    parser.add_argument("--batch-size", type=int,
                        default=defaults["batch_size"],
                        help="proposals evaluated per exploration round "
                             "(part of the trajectory, independent of --jobs)")
    parser.add_argument("--cache", metavar="PATH",
                        help="persistent QoR estimate cache (a JSONL file, "
                             "or a directory receiving estimates.jsonl); a "
                             "sweep with one writes no checkpoint, and "
                             "re-running it continues from the cache")
    parser.add_argument("--register-pipeline", metavar="NAME=SPEC",
                        action="append", default=[],
                        help="register a named cleanup pipeline before "
                             "the sweep (repeatable); design points can "
                             "then select NAME and the kernel pipeline "
                             "signature covers SPEC")
    parser.add_argument("--checkpoint", metavar="DIR",
                        help="checkpoint directory: one <key>.ckpt.json per "
                             "kernel (kernel.ckpt.json for a single kernel); "
                             "re-running the same command continues from it")
    parser.add_argument("--checkpoint-every", type=int,
                        default=defaults["checkpoint_every"],
                        help="save the records so far every N points "
                             "(a re-run replays the sweep, serving each "
                             "point the checkpoint holds)")
    parser.add_argument("--task-timeout", type=float, metavar="SECONDS",
                        help="wall-clock budget per evaluation; a task over "
                             "budget has its worker killed and is retried "
                             "(default: no timeout)")
    parser.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="retries per design point after its worker "
                             "crashed or timed out, before the point is "
                             "quarantined; a point whose evaluation raises "
                             "is quarantined at once (default: 2)")
    parser.add_argument("--on-fault", choices=("quarantine", "fail"),
                        default="quarantine",
                        help="when a point fails for good: 'quarantine' "
                             "records it as failed and continues "
                             "(deterministic at any --jobs), 'fail' aborts "
                             "the run (default: quarantine)")
    # Chaos-testing hook for CI and tests; deliberately undocumented.
    parser.add_argument("--inject-faults", metavar="SPEC",
                        help=argparse.SUPPRESS)


@contextlib.contextmanager
def _sweep_settings(args):
    """The ``SweepConfig`` fields the flags of :func:`_add_sweep_arguments`
    spell, for the ``repro.pipeline.explore_*`` flows, plus
    ``checkpoint_dir``.  Registers the ``--register-pipeline`` specs on the
    way: that must precede any pipeline-signature computation (worker
    contexts, cache fingerprints), so the sweep commands enter this before
    they load anything.  The ``--cache`` file is open for the block and
    closed when it ends, however it ends."""
    from repro.dse.runtime import EstimateCache, SupervisionPolicy

    if args.checkpoint and os.path.exists(args.checkpoint) \
            and not os.path.isdir(args.checkpoint):
        raise SystemExit("--checkpoint must name a directory: "
                         f"{args.checkpoint!r} is a file")
    for flag, value, least in (("--jobs", args.jobs, 1),
                               ("--batch-size", args.batch_size, 1),
                               ("--checkpoint-every", args.checkpoint_every, 1),
                               ("--samples", args.samples, 1),
                               ("--iterations", args.iterations, 0)):
        if value < least:
            raise SystemExit(f"{flag} must be >= {least}, got {value}")
    _validate_supervision(args)
    _register_pipelines(args.register_pipeline)
    faults = _fault_plan(args)
    try:
        cache = EstimateCache(_estimate_cache_path(args.cache)) \
            if args.cache else None
    except ValueError as error:
        raise SystemExit(f"--cache: {error}") from error
    try:
        yield dict(
            jobs=args.jobs, num_samples=args.samples,
            max_iterations=args.iterations, seed=args.seed,
            batch_size=args.batch_size, cache=cache,
            checkpoint_dir=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            supervision=SupervisionPolicy(task_timeout=args.task_timeout,
                                          max_retries=args.max_retries,
                                          on_fault=args.on_fault),
            faults=faults)
    finally:
        if cache is not None:
            cache.close()


def _estimate_cache_path(path: str) -> str:
    """Resolve ``--cache`` to a JSONL file (directories get estimates.jsonl)."""
    if os.path.isdir(path) or path.endswith(os.sep):
        return os.path.join(path, "estimates.jsonl")
    return path


def _fault_plan(args):
    """The parsed ``--inject-faults`` plan, or None."""
    if not args.inject_faults:
        return None
    from repro.dse.runtime import FaultPlan

    try:
        return FaultPlan.parse(args.inject_faults)
    except ValueError as error:
        raise SystemExit(f"--inject-faults: {error}") from error


def _validate_supervision(args) -> None:
    """Reject nonsensical supervision flags before the sweep starts.

    The policy object validates too, but from deep inside the runtime; the
    driver catches the obvious cases up front with flag-named messages.
    """
    timeout = args.task_timeout
    if timeout is not None and timeout <= 0:
        raise SystemExit(f"--task-timeout must be a positive number of "
                         f"seconds, got {timeout:g} (drop the flag to "
                         f"disable per-task timeouts)")
    retries = args.max_retries
    if retries < 0:
        raise SystemExit(f"--max-retries must be >= 0, got {retries} "
                         f"(0 quarantines a point on its first crash or "
                         f"timeout)")


def _add_pipeline_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pipeline", metavar="SPEC",
        help="textual pass pipeline run after parsing, replacing the default "
             "'func.func(raise-scf-to-affine,canonicalize)' "
             "(e.g. 'func.func(raise-scf-to-affine,canonicalize,cse)')")


def _add_point_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--perfectize", action="store_true", help="run loop perfectization")
    parser.add_argument("--rvb", action="store_true", help="remove variable loop bounds")
    parser.add_argument("--perm", help="comma-separated permutation map, e.g. 1,2,0")
    parser.add_argument("--tiles", help="comma-separated tile sizes, e.g. 8,1,16")
    parser.add_argument("--ii", type=int, default=1, help="pipeline target II")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-hls",
                                     description="ScaleHLS reproduction driver")
    commands = parser.add_subparsers(dest="command", required=True)

    compile_parser = commands.add_parser("compile", help="parse C and print affine-level IR")
    _add_kernel_arguments(compile_parser)
    _add_pipeline_argument(compile_parser)

    estimate_parser = commands.add_parser("estimate", help="estimate latency and resources")
    _add_kernel_arguments(estimate_parser)
    _add_platform_arguments(estimate_parser, default_name="xc7z020")
    _add_pipeline_argument(estimate_parser)
    _add_point_arguments(estimate_parser)

    dse_parser = commands.add_parser("dse", help="run the automated DSE engine")
    _add_kernel_arguments(dse_parser)
    _add_platform_arguments(dse_parser, default_name="xc7z020")
    _add_sweep_arguments(dse_parser, KERNEL_BUDGET)
    dse_parser.add_argument("--all-functions", action="store_true",
                            help="explore every function of the module concurrently")
    dse_parser.add_argument("--frontier-out", metavar="PATH",
                            help="write the frontier (per-platform frontiers "
                                 "for a multi-platform sweep) as byte-stable "
                                 "JSON — identical across --jobs and re-runs")

    emit_parser = commands.add_parser("emit", help="emit synthesizable HLS C++")
    _add_kernel_arguments(emit_parser)
    _add_platform_arguments(emit_parser, default_name="xc7z020")
    _add_pipeline_argument(emit_parser)
    _add_point_arguments(emit_parser)
    emit_parser.add_argument("--dse", action="store_true",
                             help="pick the design point with the DSE engine")
    emit_parser.add_argument("-o", "--output", help="write the C++ to a file")

    dnn_parser = commands.add_parser("dnn", help="compile or explore a DNN model")
    dnn_parser.add_argument("model", nargs="?", default="mobilenet",
                            choices=("resnet18", "vgg16", "mobilenet"),
                            help="bundled model (default: mobilenet)")
    dnn_parser.add_argument("--graph-level", type=int, default=4)
    dnn_parser.add_argument("--loop-level", type=int, default=3)
    _add_platform_arguments(dnn_parser, default_name="vu9p-slr")
    dnn_parser.add_argument("--dse", action="store_true",
                            help="sweep every dataflow node's design space "
                                 "through the multi-kernel scheduler and "
                                 "compose the model-level Pareto frontier")
    _add_sweep_arguments(dnn_parser, DNN_BUDGET)
    dnn_parser.add_argument("--smoke", action="store_true",
                            help="tiny sweep for CI: 3 samples, 4 iterations, "
                                 "3 heaviest nodes")
    dnn_parser.add_argument("--frontier-out", metavar="PATH",
                            default="dnn-dse-frontier.json",
                            help="where --dse writes the model frontier JSON "
                                 "(default: dnn-dse-frontier.json)")
    _add_instrumentation_arguments(dnn_parser)

    list_parser = commands.add_parser(
        "list-passes",
        help="list registered passes and self-check the registry")
    list_parser.add_argument("--verbose", action="store_true",
                             help="also print option types, defaults and help")

    report_parser = commands.add_parser(
        "report", help="render a --metrics-out JSON document as a human "
                       "report (optionally validating a --trace-out trace)")
    report_parser.add_argument("metrics",
                               help="metrics JSON written by --metrics-out")
    report_parser.add_argument("--trace", metavar="PATH",
                               help="also validate a Chrome trace written by "
                                    "--trace-out (exit 1 when invalid)")
    return parser


def run_compile(args) -> int:
    module = _load_module(args)
    verify(module)
    print(print_op(module))
    return 0


def run_estimate(args) -> int:
    module = _load_module(args)
    platform = _single_platform(args, "xc7z020")
    point = _design_point(args, module)
    baseline = estimate_baseline(module, platform)
    print(f"baseline: latency={baseline.latency:,} cycles dsp={baseline.dsp} "
          f"lut={baseline.lut}")
    if point is not None:
        design = apply_design_point(module, point, platform)
        print(f"design point {point.describe()}")
        print(f"optimized: latency={design.qor.latency:,} cycles dsp={design.qor.dsp} "
              f"lut={design.qor.lut} II={design.achieved_ii}")
        print(f"speedup: {baseline.latency / design.qor.latency:.1f}x")
    return 0


def _register_pipelines(specs: Sequence[str]) -> None:
    """Apply every ``--register-pipeline NAME=SPEC`` before the sweep runs.

    Registration must precede any pipeline-signature computation (worker
    contexts, cache fingerprints), so the DSE entry points call this first.
    """
    from repro.dse.apply import register_cleanup_pipeline

    for item in specs:
        name, separator, spec = item.partition("=")
        if not separator:
            raise SystemExit(f"--register-pipeline expects NAME=SPEC, "
                             f"got {item!r}")
        try:
            register_cleanup_pipeline(name.strip(), spec.strip())
        except PassError as error:
            raise SystemExit(f"--register-pipeline {item!r}: {error}") \
                from error


def run_dse(args) -> int:
    from repro.pipeline import explore_module_kernels

    with _sweep_settings(args) as settings:
        module = _load_module(args)
        platforms = _resolve_platforms(args, "xc7z020")
        platform = platforms[0]
        # dse reads records only: no kept design to hand over.
        common = dict(settings, keep_design=False,
                      platforms=platforms if len(platforms) > 1 else None)

        if args.all_functions:
            if args.frontier_out:
                raise SystemExit("--frontier-out requires a single-kernel run "
                                 "(drop --all-functions)")
            results = explore_module_kernels(module, platform, **common)
            if not results:
                raise SystemExit("no explorable functions: the module contains "
                                 "no affine loop nests")
            for name in sorted(results):
                _print_dse_result(f"{name}: ", results[name], {
                    target.name: estimate_baseline(module, target,
                                                   func_name=name)
                    for target in platforms})
            return 0

        baselines = {target.name: estimate_baseline(module, target)
                     for target in platforms}
        result = _explore_kernel(module, platform, **common)
    _print_dse_result("", result, baselines)
    if args.frontier_out:
        with open(args.frontier_out, "w", encoding="utf-8") as handle:
            handle.write(_dse_frontier_json(result))
        print(f"wrote {args.frontier_out}")
    return 0


def _dse_frontier_json(result) -> str:
    """Byte-stable JSON of a kernel sweep's frontier(s).

    Deliberately excludes wall-clock and cache statistics so the artifact is
    identical across ``--jobs`` counts and re-runs — CI byte-compares it.
    """
    def entry(record):
        return {
            "encoded": list(record.encoded),
            "point": record.point.describe(),
            "latency": record.qor.latency,
            "interval": record.qor.interval,
            "dsp": record.qor.dsp,
            "lut": record.qor.lut,
        }

    document = {
        "fingerprint": result.fingerprint,
        "num_evaluations": result.num_evaluations,
    }
    names = result.platform_names()
    if names:
        document["platform_frontiers"] = {
            name: [entry(record) for record in result.frontier_records_for(name)]
            for name in names
        }
    else:
        document["frontier"] = [entry(record)
                                for record in result.frontier_records()]
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _print_dse_result(prefix: str, result, baselines: dict) -> None:
    """A kernel sweep's report: one frontier and finalized design per
    platform (tagged ``[name]`` in a multi-platform sweep)."""
    cache_note = ""
    if result.cache_hits or result.cache_misses:
        cache_note = (f" (cache: {result.cache_hits - result.shared_hits} hits, "
                      f"{result.cache_misses} misses")
        if result.shared_with is not None:
            cache_note += (f", {result.shared_hits} shared with "
                           f"{result.shared_with}")
        cache_note += ")"
    platform_names = result.platform_names()
    frontier_note = ("per-platform Pareto frontiers" if platform_names
                     else "Pareto frontier")
    print(f"{prefix}evaluated {result.num_evaluations} points in "
          f"{result.wall_seconds:.2f}s{cache_note}; {frontier_note}:")
    if result.num_quarantined:
        print(f"{prefix}quarantined {result.num_quarantined} failed point(s) "
              f"(excluded from the frontier)")
    # (tag, frontier records, finalized record, baseline) per platform.
    views = [(f"[{name}] ", result.frontier_records_for(name),
              result.best_record_for(name), baselines[name])
             for name in platform_names] or [
        ("", result.frontier_records(), result.best_record,
         baselines[result.platform.name])]
    for tag, records, best, baseline in views:
        if tag:
            print(f"{prefix}{tag}frontier ({len(records)} points):")
        for record in records:
            print(f"  latency={record.qor.latency:<14,} "
                  f"dsp={record.qor.dsp:<5} {record.point.describe()}")
        if best is None:
            print(f"{prefix}{tag}no design evaluated" + (
                "" if tag else " (empty design space or zero budget)"))
            continue
        print(f"{prefix}{tag}finalized: latency={best.qor.latency:,} "
              f"dsp={best.qor.dsp} "
              f"speedup={baseline.latency / best.qor.latency:.1f}x")


def _reject_unread(args, dests: Sequence[str], rule: str) -> None:
    """End the command with one line naming the first flag of ``dests``
    (argparse destinations) that ``args`` sets to other than its default,
    ``rule`` saying why the command does not read it."""
    defaults = build_parser().parse_args([args.command])
    for dest in dests:
        if getattr(args, dest) != getattr(defaults, dest):
            raise SystemExit(f"--{dest.replace('_', '-')} {rule}")


def run_emit(args) -> int:
    if args.dse:
        _reject_unread(args, ("ii", "perm", "tiles", "perfectize", "rvb"),
                       "and --dse exclude each other")
    module = _load_module(args)
    platform = _single_platform(args, "xc7z020")
    if args.dse:
        design = _explore_kernel(module, platform, num_samples=24,
                                 max_iterations=48, batch_size=1).best_design()
    else:
        design = apply_design_point(
            module, _design_point(args, module, default=True), platform)
    code = emit_hlscpp(design.module)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(code)
        print(f"wrote {args.output}")
    else:
        print(code)
    return 0


def run_dnn_dse(args) -> int:
    from repro.pipeline import explore_dnn

    with _sweep_settings(args) as settings:
        platforms = _resolve_platforms(args, "vu9p-slr")
        platform = platforms[0]
        max_nodes = None
        if args.smoke:
            settings.update(num_samples=3, max_iterations=4)
            max_nodes = 3
        result = explore_dnn(
            args.model, platform, graph_level=args.graph_level,
            max_nodes=max_nodes,
            platforms=platforms if len(platforms) > 1 else None, **settings)

    # The cache note speaks of the persistent cache only: the evaluations a
    # node's representative made within this run are the run summary's
    # sharing line.
    cache_parts = []
    if args.cache:
        persistent_hits = result.cache_hits - result.shared_points
        if persistent_hits:
            cache_parts.append(f"{persistent_hits} sweep hits")
        if result.cache_misses:
            cache_parts.append(f"{result.cache_misses} misses")
    cache_note = f" (cache: {', '.join(cache_parts)})" if cache_parts else ""
    print(f"{result.model}: explored {len(result.node_order)} dataflow nodes, "
          f"{result.num_evaluations} evaluations in "
          f"{result.wall_seconds:.2f}s{cache_note}")
    if result.skipped:
        print(f"  skipped nodes: {', '.join(result.skipped)}")
    quarantined = sum(node.num_quarantined
                      for node in result.node_results.values())
    if quarantined:
        print(f"  quarantined {quarantined} failed point(s) "
              f"(excluded from every frontier)")
    if not result.node_order:
        print("  no explorable dataflow nodes (no affine loop nests); "
              "no frontier to report")
    if result.truncated:
        print(f"  frontier cap dropped {result.truncated} composition points")
    _print_model_frontier("model frontier", result.frontier,
                          ", latency = sum of stage latencies, resources = "
                          "sum over stages")
    for name, frontier in result.platform_frontiers.items():
        _print_model_frontier(f"[{name}] model frontier", frontier)
    best = result.best_point()
    if best is not None:
        utilization = platform.utilization(best.resources)
        print(f"  selected: latency={best.latency:,} dsp={best.resources.dsp} "
              f"({utilization['dsp'] * 100:.1f}%) "
              f"memory={best.resources.memory_bits / 1e6:.1f}Mb")
    with open(args.frontier_out, "w", encoding="utf-8") as handle:
        handle.write(result.frontier_json())
    print(f"wrote {args.frontier_out}")
    return 0


def _print_model_frontier(title: str, frontier, note: str = "") -> None:
    print(f"  {title} ({len(frontier)} points{note}):")
    for point in frontier:
        print(f"    latency={point.latency:<14,} interval={point.interval:<12,} "
              f"dsp={point.resources.dsp:<6} lut={point.resources.lut}")


def run_dnn(args) -> int:
    for flag, level in (("--graph-level", args.graph_level), ("--loop-level", args.loop_level)):
        if not 0 <= level <= 7:  # the paper's G0-G7 / L0-L7, checked before anything loads
            raise SystemExit(f"{flag} must be in 0..7, got {level}")
    if args.dse:
        _reject_unread(args, ("loop_level",), "does not apply with --dse")
        return run_dnn_dse(args)
    sweep_flags = argparse.ArgumentParser()
    _add_sweep_arguments(sweep_flags, DNN_BUDGET)
    _reject_unread(args, [*vars(sweep_flags.parse_args([])), "smoke",
                          "frontier_out"], "applies only with --dse")
    platform = _single_platform(args, "vu9p-slr")
    baseline = dnn_baseline(args.model, platform=platform)
    result = compile_dnn(args.model, graph_level=args.graph_level,
                         loop_level=args.loop_level, directive_level=True,
                         platform=platform)
    speedup = baseline.qor.interval / result.qor.interval
    utilization = platform.utilization(result.qor.resources)
    print(f"{args.model}: speedup={speedup:.1f}x interval={result.qor.interval:,} cycles")
    print(f"  dsp={result.qor.dsp} ({utilization['dsp'] * 100:.1f}%) "
          f"memory={result.qor.memory_bits / 1e6:.1f}Mb lut={result.qor.lut}")
    print(f"  dsp efficiency={result.dsp_efficiency:.3f} OP/cycle/DSP "
          f"stages={result.num_dataflow_stages} runtime={result.runtime_seconds:.1f}s")
    return 0


def run_list_passes(args) -> int:
    """Print the registry and self-check every registered pass.

    The self-check fails (exit 1) when a pass cannot be default-constructed,
    does not survive a pickle round-trip (the DSE workers require it), or
    does not round-trip through the textual pipeline syntax — so a transform
    added without proper registration fails fast in CI.
    """
    import pickle

    from repro.ir.pass_registry import (build_pipeline, pass_aliases,
                                        registered_passes)

    failures = []
    aliases_by_canonical: dict[str, list[str]] = {}
    for alias, canonical in pass_aliases().items():
        aliases_by_canonical.setdefault(canonical, []).append(alias)

    passes = registered_passes()
    for name, cls in passes.items():
        try:
            instance = cls()
            if instance.name != name:
                raise PassError(f"instance name {instance.name!r} != registry "
                                f"key {name!r}")
            restored = pickle.loads(pickle.dumps(instance))
            if restored.display_name != instance.display_name:
                raise PassError("pickle round-trip changed the display name")
            if build_pipeline(instance.display_name).to_spec() \
                    != instance.display_name:
                raise PassError("textual spec round-trip diverged")
        except Exception as error:  # noqa: BLE001 — report, don't crash the listing
            failures.append((name, error))
            status = f"SELF-CHECK FAILED: {error}"
        else:
            status = ""
        anchor = cls.target_op or "any"
        alias_note = ""
        if name in aliases_by_canonical:
            alias_note = f" (aliases: {', '.join(sorted(aliases_by_canonical[name]))})"
        doc = (cls.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:28s} [{anchor}]{alias_note} {summary} {status}".rstrip())
        if args.verbose:
            for option in cls.OPTIONS:
                print(f"    {option.name}={option.type} "
                      f"(default {option.default!r}) {option.help}".rstrip())
    print(f"{len(passes)} passes registered, "
          f"{len(pass_aliases())} aliases, {len(failures)} self-check failures")
    return 1 if failures else 0


def run_report(args) -> int:
    """Render a metrics document; optionally validate a trace file."""
    from repro.obs.export import load_metrics, load_trace, validate_chrome_trace
    from repro.obs.report import render_metrics_report

    print(render_metrics_report(load_metrics(args.metrics)))
    if args.trace:
        document = load_trace(args.trace)
        problems = validate_chrome_trace(document)
        if problems:
            for problem in problems:
                print(f"trace problem: {problem}", file=sys.stderr)
            return 1
        events = document.get("traceEvents", [])
        spans = sum(1 for event in events if event.get("ph") == "X")
        tracks = sum(1 for event in events
                     if event.get("ph") == "M"
                     and event.get("name") == "thread_name")
        print(f"trace OK: {spans} spans on {tracks} track(s)")
    return 0


_COMMANDS = {
    "compile": run_compile,
    "estimate": run_estimate,
    "dse": run_dse,
    "emit": run_emit,
    "dnn": run_dnn,
    "list-passes": run_list_passes,
    "report": run_report,
}


def _resolve_dump_passes(names: Sequence[str]) -> list[str]:
    """Resolve ``--dump-ir-after`` names to canonical registry pass names.

    ``all`` (alone or among other names) selects every pass.  Unknown names
    fail fast with the registry's actionable error instead of silently
    producing no snapshots.
    """
    from repro.ir.pass_registry import get_pass_class, pass_aliases

    if any(name == "all" for name in names):
        return []
    aliases = pass_aliases()
    resolved = []
    for name in names:
        get_pass_class(name)  # raises PassError for unknown names
        resolved.append(aliases.get(name, name))
    return resolved


def _finish_session(session: "obs.ObsSession", args, timing: bool,
                    is_dse_run: bool) -> None:
    """Render/export one finished observability session (driver epilogue)."""
    counters = dict(session.metrics.counters)
    if timing:
        print(format_timing_report(
            pass_timings_of(counters, session.tracer.tracks())))
        patterns, buckets = pattern_stats_of(counters)
        if patterns:
            print(format_pattern_stats(patterns, buckets))
    if is_dse_run:
        summary = render_run_summary(session.metrics.to_json_dict())
        if summary:
            print(summary)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        write_chrome_trace(trace_out, session.tracer)
        print(f"wrote {trace_out} ({session.tracer.num_spans()} spans)",
              file=sys.stderr)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        write_metrics_json(metrics_out, session.metrics)
        print(f"wrote {metrics_out}", file=sys.stderr)


def _interrupt_hint(args) -> int:
    """One actionable line instead of a KeyboardInterrupt traceback."""
    hint = ""
    if getattr(args, "cache", None) or getattr(args, "checkpoint", None):
        hint = " — re-run the same command to continue"
    elif args.command == "dse" or (args.command == "dnn"
                                   and getattr(args, "dse", False)):
        hint = (" — add --checkpoint DIR to make interrupted sweeps "
                "resumable")
    print(f"interrupted{hint}", file=sys.stderr)
    return 130


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    dump_passes = getattr(args, "dump_ir_after", None)
    timing = getattr(args, "print_pass_timing", False)
    is_dse_run = args.command == "dse" or (args.command == "dnn"
                                           and getattr(args, "dse", False))
    # DSE runs always get a session (the end-of-run summary reads it); other
    # commands only pay for one when instrumentation output was requested.
    want_obs = bool(timing or getattr(args, "trace_out", None)
                    or getattr(args, "metrics_out", None) or is_dse_run)
    try:
        if not dump_passes and not want_obs:
            return handler(args)

        session = None
        with contextlib.ExitStack() as stack:
            if want_obs:
                session = stack.enter_context(obs.session())
            if dump_passes:
                try:
                    resolved = _resolve_dump_passes(dump_passes)
                except PassError as error:
                    raise SystemExit(str(error)) from error
                dumper = stack.enter_context(
                    dump_ir_after(args.dump_ir_dir, resolved))
            with obs.span(f"cli.{args.command}"):
                status = handler(args)
        if session is not None:
            _finish_session(session, args, timing, is_dse_run)
        if dump_passes:
            print(f"wrote {dumper.counter} IR snapshot(s) to {args.dump_ir_dir}",
                  file=sys.stderr)
        return status
    except KeyboardInterrupt:
        return _interrupt_hint(args)
    except EvaluationFailure as error:
        # --on-fault fail: the kernel, the point and the error, in one line.
        raise SystemExit(str(error)) from error


if __name__ == "__main__":
    sys.exit(main())

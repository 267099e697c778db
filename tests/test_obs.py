"""Tests for the unified tracing + metrics subsystem (``repro.obs``)."""

import json
import time

import pytest

from repro import obs
from repro.obs import NULL_SPAN
from repro.obs.export import (
    chrome_trace_document,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import MetricsRegistry, pattern_counter_deltas
from repro.obs.report import (
    format_timing_report,
    pass_timings_of,
    pattern_stats_of,
    render_metrics_report,
    render_run_summary,
)
from repro.obs.tracer import Tracer
from repro.tools.driver import main


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test starts and ends with observability disabled."""
    obs.stop()
    yield
    obs.stop()


class TestNullPath:
    def test_span_returns_shared_null_singleton(self):
        assert obs.active() is None
        assert obs.span("anything") is NULL_SPAN
        assert obs.span("other", key="value") is NULL_SPAN

    def test_null_span_is_inert_context_manager(self):
        with obs.span("nothing") as span:
            span.set(key=1)
        obs.counter("x")
        obs.gauge("y", 1)
        obs.observe("z", 1)
        obs.series("s", 0, 1)

    def test_disabled_span_overhead_is_tiny(self):
        # The disabled hook is a global load + None check; a very generous
        # per-call bound documents that it cannot dominate a rewrite storm.
        n = 50_000
        started = time.perf_counter()
        for _ in range(n):
            obs.span("hot")
        per_call = (time.perf_counter() - started) / n
        assert per_call < 5e-6


class TestTracer:
    def test_spans_nest_by_track_local_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = tracer.tracks()["main"]
        assert [(s.name, s.depth) for s in spans] == [("inner", 1), ("outer", 0)]

    def test_span_closes_and_records_error_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("will_fail"):
                raise ValueError("boom")
        (span,) = tracer.tracks()["main"]
        assert span.args["error"] == "ValueError: boom"

    def test_track_routing_and_depth_reset(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.use_track("side"):
                with tracer.span("routed"):
                    pass
        assert tracer.tracks()["side"][0].depth == 0  # depth is track-local
        assert tracer.tracks()["main"][0].name == "root"

    def test_absorb_appends_groups_at_cursor(self):
        local = Tracer()
        with local.span("work"):
            pass
        telemetry = obs.ObsSession(local, MetricsRegistry()).to_telemetry()
        coordinator = Tracer()
        coordinator.absorb("worker:k", telemetry)
        coordinator.absorb("worker:k", telemetry)
        spans = coordinator.tracks()["worker:k"]
        assert len(spans) == 2
        assert spans[1].start >= spans[0].start  # second group after cursor


class TestCaptureTask:
    def test_capture_returns_result_and_telemetry(self):
        result, telemetry = obs.capture_task(lambda x: x * 2, 21)
        assert result == 42
        names = [row[0] for row in telemetry.spans]
        assert "dse.evaluate" in names
        assert obs.active() is None  # previous (no) session restored

    def test_capture_restores_session_on_error(self):
        session = obs.start()
        with pytest.raises(RuntimeError):
            obs.capture_task(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        assert obs.active() is session

    def test_absorb_task_merges_counters_and_busy_time(self):
        def work():
            obs.counter("estimate.calls")
            return 1

        _, telemetry = obs.capture_task(work)
        session = obs.start()
        obs.absorb_task("worker:k", telemetry)
        assert session.metrics.counter("estimate.calls") == 1
        assert session.metrics.counter("dse.worker.busy_seconds") > 0
        assert "worker:k" in session.tracer.tracks()


class TestSuspended:
    def test_hides_the_session_from_the_calling_thread_only(self):
        import threading

        with obs.session() as session:
            inside, reported = threading.Event(), threading.Event()

            def neighbour():
                inside.wait(timeout=10)
                obs.counter("neighbour")
                with obs.span("neighbour.span"):
                    pass
                reported.set()

            thread = threading.Thread(target=neighbour)
            thread.start()
            with obs.suspended():
                inside.set()
                assert reported.wait(timeout=10)
                obs.counter("hidden")
                assert obs.active() is None
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert obs.active() is session
            assert session.metrics.counter("neighbour") == 1
            assert session.metrics.counter("hidden") == 0
            assert session.tracer.num_spans() == 1

    def test_coordinator_threads_suspending_at_once_lose_nothing(self):
        # More threads than cores, a short switch interval: with one shared
        # "suspended" flag an interleaved exit restored None for good and
        # every later counter was dropped.
        import sys
        import threading

        rounds, workers = 300, 8

        def coordinator():
            for _ in range(rounds):
                with obs.suspended():
                    obs.counter("hidden")
                obs.counter("seen")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.session() as session:
                threads = [threading.Thread(target=coordinator)
                           for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert obs.active() is session
                assert session.metrics.counter("seen") == rounds * workers
                assert session.metrics.counter("hidden") == 0
        finally:
            sys.setswitchinterval(interval)


class TestMetricsRegistry:
    def test_counters_gauges_histograms_series(self):
        registry = MetricsRegistry()
        registry.counter_add("c", 2)
        registry.counter_add("c", 3)
        registry.gauge_set("g", 7)
        registry.observe("h", 1)
        registry.observe("h", 5)
        registry.series_append("s", 0, 10)
        registry.series_append("s", 4, 12)
        doc = registry.to_json_dict()
        assert doc["counters"]["c"] == 5
        assert doc["gauges"]["g"] == 7
        assert doc["histograms"]["h"] == {"count": 2, "total": 6,
                                          "min": 1, "max": 5}
        assert doc["series"]["s"] == [[0, 10], [4, 12]]

    def test_integer_valued_floats_export_as_ints(self):
        registry = MetricsRegistry()
        registry.counter_add("c", 2.0)
        assert registry.to_json_dict()["counters"]["c"] == 2

    def test_pattern_counter_deltas_round_trip(self):
        deltas = pattern_counter_deltas({"fold": (3, 1)}, {"arith.addi": (2, 5)})
        patterns, buckets = pattern_stats_of(deltas)
        assert patterns == {"fold": (3, 1)}
        assert buckets == {"arith.addi": (2, 5)}


class TestReports:
    def test_timing_report_breaks_ties_by_name(self):
        report = format_timing_report({"b-pass": 0.5, "a-pass": 0.5,
                                       "c-pass": 1.0})
        lines = [line.split()[-1] for line in report.splitlines()[1:-1]]
        assert lines == ["c-pass", "a-pass", "b-pass"]

    def test_pass_timings_extracted_from_counters(self):
        counters = {"pass.seconds.canonicalize": 0.25, "other": 1}
        assert pass_timings_of(counters) == {"canonicalize": 0.25}

    def test_render_metrics_report_sections(self):
        metrics = {
            "counters": {"pass.seconds.cse": 0.1, "pattern.fold.hits": 2,
                         "pattern.fold.misses": 1, "cache.hits": 3,
                         "cache.misses": 1, "dse.points": 8,
                         "dse.evaluations": 5},
            "gauges": {"dse.wall_seconds": 2.0, "dse.jobs": 2,
                       "dse.node.k.iterations_done": 4,
                       "dse.node.k.iterations_budget": 8,
                       "dse.node.k.samples_budget": 3},
            "series": {"dse.frontier.size.k": [[0, 1], [4, 3]]},
        }
        report = render_metrics_report(metrics)
        assert "Pass execution timing report" in report
        assert "Rewrite pattern statistics" in report
        assert "hit rate=75.0%" in report
        assert "node k: iterations 4/8 (samples budget 3)" in report
        assert "frontier[k]: 3 points after 4 iterations" in report

    def test_render_run_summary_empty_without_dse_metrics(self):
        assert render_run_summary({"counters": {}}) == ""


class TestExport:
    def _traced_session(self):
        session = obs.start()
        with obs.span("outer", kind="test"):
            with obs.span("inner"):
                pass
        with obs.track("worker:k"):
            with obs.span("task"):
                pass
        return session

    def test_chrome_trace_is_valid_and_nested(self):
        session = self._traced_session()
        document = chrome_trace_document(session.tracer)
        assert validate_chrome_trace(document) == []
        names = {event["args"]["name"] for event in document["traceEvents"]
                 if event.get("ph") == "M" and event["name"] == "thread_name"}
        assert names == {"main", "worker:k"}
        spans = {event["name"] for event in document["traceEvents"]
                 if event.get("ph") == "X"}
        assert spans == {"outer", "inner", "task"}

    def test_child_interval_contained_in_parent(self):
        session = self._traced_session()
        events = {event["name"]: event
                  for event in chrome_trace_document(session.tracer)["traceEvents"]
                  if event.get("ph") == "X"}
        outer, inner = events["outer"], events["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_validator_rejects_partial_overlap(self):
        document = {"traceEvents": [
            {"ph": "X", "name": "a", "ts": 0, "dur": 10, "pid": 1, "tid": 1},
            {"ph": "X", "name": "b", "ts": 5, "dur": 10, "pid": 1, "tid": 1},
        ]}
        problems = validate_chrome_trace(document)
        assert problems and "partially overlaps" in problems[0]

    def test_validator_rejects_bad_structure(self):
        assert validate_chrome_trace({"events": []})
        assert validate_chrome_trace({"traceEvents": [{"ph": "B", "name": "x"}]})

    def test_write_files(self, tmp_path):
        session = self._traced_session()
        session.metrics.counter_add("c", 1)
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        write_chrome_trace(str(trace_path), session.tracer)
        write_metrics_json(str(metrics_path), session.metrics)
        assert validate_chrome_trace(json.loads(trace_path.read_text())) == []
        assert json.loads(metrics_path.read_text())["counters"]["c"] == 1


def _trace_skeleton(path):
    """(track, span name) sequence — the timestamp-free shape of a trace."""
    document = json.loads(path.read_text())
    track_names = {event["tid"]: event["args"]["name"]
                   for event in document["traceEvents"]
                   if event.get("ph") == "M" and event["name"] == "thread_name"}
    return [(track_names[event["tid"]], event["name"])
            for event in document["traceEvents"] if event.get("ph") == "X"]


class TestEndToEndDeterminism:
    """The acceptance contract: traced runs at any --jobs produce the same
    trace skeleton and byte-identical frontiers (tracing on or off)."""

    BASE = ["dnn", "mobilenet", "--dse", "--smoke"]
    #: The three heaviest vgg16 nodes at this graph level include two that
    #: are structurally identical, so the second shares the first's sweep.
    WITH_DUPLICATES = ["dnn", "vgg16", "--graph-level", "7", "--dse", "--smoke"]

    def _run(self, base, tmp_path, tag, jobs, traced):
        frontier = tmp_path / f"frontier-{tag}.json"
        argv = base + ["--jobs", str(jobs), "--frontier-out", str(frontier)]
        if traced:
            argv += ["--trace-out", str(tmp_path / f"trace-{tag}.json"),
                     "--metrics-out", str(tmp_path / f"metrics-{tag}.json"),
                     "--cache", str(tmp_path / f"cache-{tag}.jsonl"),
                     "--checkpoint", str(tmp_path / f"ckpt-{tag}")]
        assert main(argv) == 0
        return frontier

    def test_frontier_and_trace_deterministic(self, tmp_path, capsys):
        self._check_deterministic(self.BASE, tmp_path, capsys)

    def test_deterministic_when_nodes_share_a_sweep(self, tmp_path, capsys):
        self._check_deterministic(self.WITH_DUPLICATES, tmp_path, capsys)
        counters = json.loads(
            (tmp_path / "metrics-j2.json").read_text())["counters"]
        assert counters["dse.shared.nodes"] == 1
        assert counters["dse.shared.points"] > 0
        # The member is a copy of its representative's result: it has no
        # trajectory, hence no span, of its own.
        trace = json.loads((tmp_path / "trace-j2.json").read_text())
        explored = [event["args"]["kernel"] for event in trace["traceEvents"]
                    if event.get("name") == "dse.explore"]
        assert "forward_dataflow17" in explored
        assert "forward_dataflow20" not in explored

    def _check_deterministic(self, base, tmp_path, capsys):
        frontier_j1 = self._run(base, tmp_path, "j1", jobs=1, traced=True)
        frontier_j2 = self._run(base, tmp_path, "j2", jobs=2, traced=True)
        frontier_off = self._run(base, tmp_path, "off", jobs=2, traced=False)
        capsys.readouterr()

        # Frontier JSON: byte-identical across --jobs and tracing on/off.
        assert frontier_j1.read_bytes() == frontier_j2.read_bytes()
        assert frontier_j1.read_bytes() == frontier_off.read_bytes()

        # Trace: valid Chrome trace with coordinator AND worker spans, and
        # the same skeleton at --jobs 1 and 2.
        trace_j2 = json.loads((tmp_path / "trace-j2.json").read_text())
        assert validate_chrome_trace(trace_j2) == []
        skeleton_j1 = _trace_skeleton(tmp_path / "trace-j1.json")
        skeleton_j2 = _trace_skeleton(tmp_path / "trace-j2.json")
        assert skeleton_j1 == skeleton_j2
        tracks = {track for track, _ in skeleton_j2}
        assert any(track.startswith("dse:") for track in tracks)
        assert any(track.startswith("worker:") for track in tracks)

        # Every coordinator phase of the model sweep is named: staging and
        # the node split before the first batch, composition after.
        spans = [event for event in trace_j2["traceEvents"]
                 if event.get("ph") == "X"]

        def first(name):
            return min(event["ts"] for event in spans if event["name"] == name)

        assert first("dse.stage_graph") < first("dse.split_nodes") \
            < first("dse.batch") < first("dse.compose")
        (split,) = [event for event in spans
                    if event["name"] == "dse.split_nodes"]
        counters = json.loads(
            (tmp_path / "metrics-j2.json").read_text())["counters"]
        # One trajectory per node but those that copy a representative's.
        explored = sum(1 for event in spans if event["name"] == "dse.explore")
        assert split["args"]["nodes"] \
            == explored + counters.get("dse.shared.nodes", 0)

        # Metrics: deterministic modulo wall-clock (and the jobs gauge).
        # dse.prefix.{hits,misses} are excluded too: prefix-snapshot caches
        # are per-worker, so their warmth depends on how the pool spread the
        # batch — every evaluated record is still identical.  Fault-handling
        # counters (dse.faults.*, dse.pool.*) are execution detail by the
        # same argument: retries and pool respawns vary with scheduling even
        # though every final record is identical.
        def deterministic_part(path):
            doc = json.loads(path.read_text())
            counters = {name: value
                        for name, value in doc["counters"].items()
                        if "seconds" not in name
                        and not name.startswith("dse.prefix.")
                        and not name.startswith("dse.faults.")
                        and not name.startswith("dse.pool.")}
            gauges = {name: value for name, value in doc["gauges"].items()
                      if "seconds" not in name and name != "dse.jobs"}
            return counters, gauges, doc["series"], doc["histograms"]

        assert deterministic_part(tmp_path / "metrics-j1.json") \
            == deterministic_part(tmp_path / "metrics-j2.json")
        # The sweep has a persistent cache: it saves no checkpoint.
        assert "dse.checkpoint.saves" not in counters
        assert not list((tmp_path / "ckpt-j2").glob("*.ckpt.json"))


class TestPassSecondsCardinality:
    """``pass.seconds.*`` is keyed by registered pass name (and timing
    scope), never by option string: a sweep mints no counter per point."""

    @staticmethod
    def _sweep_counters(points: int):
        from repro.dse.runtime import ParallelExplorer, SweepConfig
        from repro.estimation import XC7Z020
        from repro.kernels import kernel_source
        from repro.pipeline import compile_c

        module = compile_c(kernel_source("gemm", 4), "gemm")
        with obs.session() as session:
            result = ParallelExplorer(XC7Z020, SweepConfig(
                num_samples=points // 2, max_iterations=points // 2,
                seed=5, batch_size=5)).explore(module)
        assert result.num_evaluations == points
        return {name for name in session.metrics.counters
                if name.startswith("pass.seconds.")}

    def test_counter_names_do_not_grow_with_the_sweep(self):
        small = self._sweep_counters(10)
        large = self._sweep_counters(30)
        assert not any("{" in name for name in large)
        assert "pass.seconds.design-point-suffix" in large
        # Everything a longer sweep can add is another of the four prefix
        # scopes (perfectize x rvb), not another design point.
        assert large - small <= {
            f"pass.seconds.prefix.lp{lp}-rvb{rvb}/{name}"
            for lp in (0, 1) for rvb in (0, 1)
            for name in ("canonicalize", "design-point-prefix")}
        assert len(large) <= 16

    def test_option_strings_stay_in_span_args(self):
        from repro.ir.pass_manager import PassManager
        from repro.transforms import AffineLoopUnrollPass
        from conftest import GEMM_SOURCE, compile_source

        module = compile_source(GEMM_SOURCE, "gemm")
        manager = PassManager([AffineLoopUnrollPass(unroll_factor=2)])
        with obs.session() as session:
            manager.run(module)
        assert set(pass_timings_of(session.metrics.counters)) \
            == {"affine-loop-unroll"}
        (span,) = [span for spans in session.tracer.tracks().values()
                   for span in spans if span.name == "pass.affine-loop-unroll"]
        assert span.args["pipeline"] == "affine-loop-unroll{factor=2}"
        assert pass_timings_of(session.metrics.counters,
                               session.tracer.tracks()) \
            == {"affine-loop-unroll{factor=2}": span.duration}

    def test_print_pass_timing_rows_do_not_depend_on_jobs(self, capsys):
        def rows(*jobs):
            assert main(["dse", "--kernel", "gemm", "--size", "4",
                         "--samples", "3", "--iterations", "2", *jobs,
                         "--print-pass-timing"]) == 0
            lines = capsys.readouterr().out.splitlines()
            table = lines[lines.index(
                "===-- Pass execution timing report --===") + 1:]
            names = [line.split(" ms  ", 1)[1] for line in
                     table[:next(index for index, line in enumerate(table)
                                 if line.endswith(" ms  Total"))]]
            assert len(set(names)) == len(names)
            return set(names)

        serial = rows()
        assert any(name.startswith("design-point-suffix{") for name in serial)
        assert any(name.startswith("prefix.lp0-rvb0/") for name in serial)
        assert not any("(worker processes)" in name for name in serial)
        assert rows("--jobs", "2") == serial


class TestDriverIntegration:
    def test_print_pass_timing_uses_registry(self, capsys):
        assert main(["compile", "--kernel", "gemm", "--size", "8",
                     "--print-pass-timing"]) == 0
        output = capsys.readouterr().out
        assert "Pass execution timing report" in output
        assert "Rewrite pattern statistics" in output

    def test_trace_and_metrics_out_on_compile(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        assert main(["compile", "--kernel", "gemm", "--size", "8",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        doc = json.loads(metrics.read_text())
        assert any(name.startswith("pass.seconds.")
                   for name in doc["counters"])

    def test_dse_prints_run_summary(self, capsys, tmp_path):
        assert main(["dse", "--kernel", "gemm", "--size", "8",
                     "--samples", "3", "--iterations", "2",
                     "--cache", str(tmp_path / "cache.jsonl")]) == 0
        output = capsys.readouterr().out
        assert "DSE run summary" in output
        assert "Estimate cache" in output
        assert "hit rate=" in output

    def test_report_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        assert main(["dse", "--kernel", "gemm", "--size", "8",
                     "--samples", "3", "--iterations", "2",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["report", str(metrics), "--trace", str(trace)]) == 0
        output = capsys.readouterr().out
        assert "DSE run summary" in output
        assert "trace OK" in output

    def test_report_rejects_invalid_trace(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps({"counters": {}}))
        bad_trace = tmp_path / "bad.json"
        bad_trace.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "name": "a", "ts": 0, "dur": 10, "pid": 1, "tid": 1},
            {"ph": "X", "name": "b", "ts": 5, "dur": 10, "pid": 1, "tid": 1},
        ]}))
        assert main(["report", str(metrics), "--trace", str(bad_trace)]) == 1
        assert "partially overlaps" in capsys.readouterr().err

"""Tests for the command-line driver."""

import dataclasses
import inspect
import os
import re
import subprocess
import sys

import pytest

import repro
from repro import pipeline
from repro.dse.runtime import EstimateCache, SweepConfig
from repro.tools.driver import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_with_kernel(self):
        args = build_parser().parse_args(["compile", "--kernel", "gemm", "--size", "16"])
        assert args.command == "compile"
        assert args.kernel == "gemm"

    def test_dnn_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dnn", "alexnet"])


class TestCommands:
    def test_compile_prints_ir(self, capsys):
        assert main(["compile", "--kernel", "gemm", "--size", "8"]) == 0
        output = capsys.readouterr().out
        assert "affine.for" in output

    def test_compile_from_file(self, tmp_path, capsys):
        source = tmp_path / "kernel.c"
        source.write_text("""
        void scale(float A[8]) {
          for (int i = 0; i < 8; i++) { A[i] *= 2.0; }
        }""")
        assert main(["compile", str(source)]) == 0
        assert "scale" in capsys.readouterr().out

    def test_compile_without_input_fails(self):
        with pytest.raises(SystemExit):
            main(["compile"])

    def test_estimate_with_point(self, capsys):
        assert main(["estimate", "--kernel", "gemm", "--size", "8",
                     "--perfectize", "--perm", "1,2,0", "--tiles", "1,1,2"]) == 0
        output = capsys.readouterr().out
        assert "baseline" in output
        assert "speedup" in output

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            main(["estimate", "--kernel", "gemm", "--size", "8", "--platform", "ultra99"])

    def test_dse_command(self, capsys):
        assert main(["dse", "--kernel", "gemm", "--size", "16",
                     "--samples", "4", "--iterations", "2"]) == 0
        output = capsys.readouterr().out
        assert "Pareto frontier" in output
        assert "finalized" in output

    def test_dse_with_jobs_matches_serial(self, capsys):
        base = ["dse", "--kernel", "gemm", "--size", "8",
                "--samples", "4", "--iterations", "4"]
        assert main(base + ["--jobs", "1"]) == 0
        serial_output = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        parallel_output = capsys.readouterr().out
        # Identical trajectory, identical report (wall time differs, and with
        # it the throughput/utilization lines of the run summary; prefix
        # snapshot caches are per-worker, so their hit counts vary with
        # --jobs even though every record is identical).
        timing_markers = ("evaluated", "evaluations/sec", "utilization",
                          "prefix snapshots")
        strip = lambda text: [line for line in text.splitlines()
                              if not any(m in line for m in timing_markers)]
        assert strip(serial_output) == strip(parallel_output)

    def test_dse_cache_and_checkpoint_flags(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.jsonl")
        checkpoint = str(tmp_path / "ckpt")
        base = ["dse", "--kernel", "gemm", "--size", "8", "--samples", "4",
                "--iterations", "4", "--cache", cache,
                "--checkpoint", checkpoint, "--checkpoint-every", "2"]
        assert main(base) == 0
        cold = capsys.readouterr().out
        assert "misses" in cold
        assert main(base) == 0
        warm = capsys.readouterr().out
        assert "finalized" in warm

    @pytest.mark.parametrize("command", [
        ["dse", "--kernel", "gemm", "--size", "8", "--samples", "2",
         "--iterations", "1"],
        ["dnn", "vgg16", "--graph-level", "7", "--dse", "--smoke"]],
        ids=["dse", "dnn"])
    def test_cache_directory_receives_estimates_jsonl(self, command, tmp_path,
                                                      capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        assert main(command + ["--cache", str(cache_dir), "--frontier-out",
                               str(tmp_path / "frontier.json")]) == 0
        assert (cache_dir / "estimates.jsonl").stat().st_size > 0
        assert "misses" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["dse", "--kernel", "gemm"],
                                         ["dnn", "--dse"]],
                             ids=["dse", "dnn"])
    def test_there_is_no_resume_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--resume"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err

    def test_there_is_no_budget_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["dnn", "vgg16", "--dse", "--budget", "uniform"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --budget" in capsys.readouterr().err

    def test_dse_checkpoint_file_rejected(self, tmp_path):
        target = tmp_path / "dse.ckpt.json"
        target.write_text("{}")
        with pytest.raises(SystemExit, match="must name a directory"):
            main(["dse", "--kernel", "gemm", "--size", "8",
                  "--checkpoint", str(target)])

    @pytest.fixture
    def trajectories(self, monkeypatch):
        """The result of every kernel trajectory a sweep runs."""
        from repro.dse.runtime import scheduler

        results = []
        explore = scheduler._explore_trajectory

        def recording(*args):
            results.append(explore(*args))
            return results[-1]

        monkeypatch.setattr(scheduler, "_explore_trajectory", recording)
        return results

    DSE_16 = ["dse", "--kernel", "gemm", "--size", "16", "--samples", "6",
              "--batch-size", "2", "--seed", "9"]

    def test_a_rerun_continues_from_the_checkpoint(self, tmp_path, capsys,
                                                   trajectories):
        # No flag: a re-run with the same checkpoint directory reads the
        # kernel's checkpoint back and evaluates nothing it holds.
        base = self.DSE_16 + ["--iterations", "8",
                              "--checkpoint", str(tmp_path / "ckpt")]
        assert main(base + ["--frontier-out", str(tmp_path / "first.json")]) == 0
        assert (tmp_path / "ckpt" / "kernel.ckpt.json").exists()
        assert main(base + ["--frontier-out", str(tmp_path / "again.json")]) == 0
        capsys.readouterr()
        assert [result.evaluated_this_run for result in trajectories] == [14, 0]
        assert (tmp_path / "again.json").read_bytes() \
            == (tmp_path / "first.json").read_bytes()

    def test_a_finished_checkpoint_continues_into_a_longer_sweep(
            self, tmp_path, capsys, trajectories):
        # A checkpoint holds records only, and a re-run replays its
        # trajectory from step 1: a longer budget continues where the
        # shorter sweep stopped instead of starting over.
        checkpoint = ["--checkpoint", str(tmp_path / "ckpt")]
        assert main(self.DSE_16 + ["--iterations", "4"] + checkpoint) == 0
        assert main(self.DSE_16 + ["--iterations", "8", "--frontier-out",
                                   str(tmp_path / "longer.json")]
                    + checkpoint) == 0
        assert main(self.DSE_16 + ["--iterations", "8", "--frontier-out",
                                   str(tmp_path / "fresh.json")]) == 0
        capsys.readouterr()
        assert [result.evaluated_this_run for result in trajectories] \
            == [10, 4, 14]
        assert (tmp_path / "longer.json").read_bytes() \
            == (tmp_path / "fresh.json").read_bytes()

    def test_dse_all_functions(self, tmp_path, capsys):
        source = tmp_path / "pair.c"
        source.write_text("""
        void scale(float A[8]) {
          for (int i = 0; i < 8; i++) { A[i] *= 2.0; }
        }
        void shift(float B[8]) {
          for (int i = 0; i < 8; i++) { B[i] += 1.0; }
        }""")
        assert main(["dse", str(source), "--all-functions",
                     "--samples", "2", "--iterations", "2"]) == 0
        output = capsys.readouterr().out
        assert "scale: " in output
        assert "shift: " in output

    def test_emit_to_file(self, tmp_path, capsys):
        target = tmp_path / "kernel.cpp"
        assert main(["emit", "--kernel", "gemm", "--size", "8",
                     "--perfectize", "--tiles", "1,1,2", "-o", str(target)]) == 0
        code = target.read_text()
        assert "void gemm(" in code
        assert "#pragma HLS" in code

    def test_emit_dse_picks_the_finalized_design(self, capsys):
        assert main(["emit", "--kernel", "bicg", "--size", "8", "--dse"]) == 0
        assert "#pragma HLS pipeline" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["dse"], ["emit", "--dse"]])
    def test_a_kernel_without_a_loop_nest_is_one_line(self, tmp_path,
                                                      command):
        source = tmp_path / "flat.c"
        source.write_text("""
        void flat(float A[4]) {
          A[0] = A[0] + A[1];
        }""")
        with pytest.raises(SystemExit) as exit_info:
            main([command[0], str(source), *command[1:]])
        assert exit_info.value.code == "flat: no affine loop nest to explore"

    def test_the_documented_invocation_does_not_warn(self):
        src_root = os.path.dirname(os.path.abspath(
            next(iter(repro.__path__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "repro.tools.driver", "list-passes"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert "found in sys.modules" not in done.stderr

    def test_dnn_command(self, capsys):
        assert main(["dnn", "mobilenet", "--graph-level", "2", "--loop-level", "1"]) == 0
        output = capsys.readouterr().out
        assert "speedup" in output
        assert "dsp" in output


class TestPointFlags:
    """``--perm`` / ``--tiles`` address the kernel's own loop band."""

    @pytest.mark.parametrize("kernel,perm,tiles", [
        ("bicg", "1,0", "2,4"), ("gemm", "1,2,0", "2,1,4")],
        ids=["2-deep", "3-deep"])
    def test_vectors_of_the_band_depth_are_applied(self, kernel, perm, tiles,
                                                   capsys):
        assert main(["estimate", "--kernel", kernel, "--size", "8",
                     "--perm", perm, "--tiles", tiles]) == 0
        output = capsys.readouterr().out
        assert f"perm={[int(v) for v in perm.split(',')]}" in output
        assert f"tiles={[int(v) for v in tiles.split(',')]}" in output

    @pytest.mark.parametrize("kernel,depth", [("bicg", 2), ("gemm", 3)])
    def test_defaults_take_the_band_depth(self, kernel, depth, capsys):
        assert main(["estimate", "--kernel", kernel, "--size", "8",
                     "--ii", "2"]) == 0
        output = capsys.readouterr().out
        assert f"perm={list(range(depth))} tiles={[1] * depth}" in output
        assert main(["emit", "--kernel", kernel, "--size", "8"]) == 0
        assert f"void {kernel}(" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["estimate", "emit"])
    @pytest.mark.parametrize("kernel,depth,flag,value", [
        ("bicg", 2, "--perm", "1,2,0"), ("bicg", 2, "--tiles", "4"),
        ("gemm", 3, "--perm", "1,0"), ("gemm", 3, "--tiles", "4,4"),
        ("gemm", 3, "--tiles", "4,x,4")])
    def test_wrong_length_names_the_flag_and_the_depth(self, command, kernel,
                                                       depth, flag, value):
        with pytest.raises(SystemExit, match=f"{flag} .*{depth} deep"):
            main([command, "--kernel", kernel, "--size", "8", flag, value])

    @pytest.mark.parametrize("flag,value", [("--perm", "0,0,1"),
                                            ("--perm", "1,2,3"),
                                            ("--tiles", "2,0,2")])
    def test_invalid_values_are_rejected(self, flag, value):
        with pytest.raises(SystemExit, match=f"{flag} .*3"):
            main(["estimate", "--kernel", "gemm", "--size", "8", flag, value])

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_a_target_ii_below_one_is_rejected(self, value):
        with pytest.raises(SystemExit) as raised:
            main(["estimate", "--kernel", "gemm", "--size", "4", "--ii", value])
        assert str(raised.value) == f"--ii must be >= 1, got {value}"

    @pytest.mark.parametrize("command", ["compile", "estimate", "dse", "emit"])
    @pytest.mark.parametrize("size", ["1", "0", "-3"])
    def test_a_kernel_size_below_two_is_one_line(self, command, size):
        with pytest.raises(SystemExit) as raised:
            main([command, "--kernel", "gemm", "--size", size])
        assert str(raised.value) == f"--size must be >= 2, got {size}"


    @pytest.mark.parametrize("command", ["estimate", "emit"])
    def test_a_flag_the_evaluation_applies_differently_is_reported(
            self, command, capsys):
        """The flags are checked against the band as written (3 deep); the
        evaluation permutes and tiles the perfect band after the prefix."""
        base = [command, "--kernel", "gemm", "--size", "8"]

        def run(*flags):
            assert main(base + list(flags)) == 0
            return capsys.readouterr()

        dropped = run("--perm", "2,1,0")
        assert dropped.err == ("--perm 2,1,0 not applied: the band is 2 deep "
                               "without --perfectize\n")
        # The message changes nothing else: the point evaluates as before.
        assert dropped.out == run("--perm", "0,1,2").out.replace(
            "perm=[0, 1, 2]", "perm=[2, 1, 0]")
        adjusted = run("--perfectize", "--tiles", "16,3,2")
        assert adjusted.err == "--tiles 16,3,2 applied as 8,2,2\n"
        assert adjusted.out == run("--perfectize", "--tiles", "8,2,2").out \
            .replace("tiles=[8, 2, 2]", "tiles=[16, 3, 2]")
        both = run("--perm", "2,1,0", "--tiles", "2,2,2")
        assert both.err.splitlines() == [
            "--perm 2,1,0 not applied: the band is 2 deep without "
            "--perfectize", "--tiles 2,2,2 applied as 2,2"]
        assert run("--perfectize", "--perm", "2,1,0",
                   "--tiles", "4,2,2").err == ""
        assert run("--perfectize", "--rvb", "--ii", "2").err == ""


class TestFlagsACommandDoesNotRead:
    """A flag the chosen mode never reads ends the command in one line
    naming it, before anything loads, instead of being ignored."""

    @staticmethod
    def nothing_loads(monkeypatch):
        import repro.pipeline as pipeline
        import repro.tools.driver as driver

        def load(*args, **kwargs):
            raise AssertionError("loaded before the flags were checked")

        for owner, name in ((driver, "_load_module"),
                            (driver, "_resolve_platforms"),
                            (driver, "dnn_baseline"), (driver, "compile_dnn"),
                            (pipeline, "explore_dnn")):
            monkeypatch.setattr(owner, name, load)

    @pytest.mark.parametrize("flags", [
        ["--ii", "-2", "--tiles", "9,9"], ["--ii", "2"], ["--perm", "1,0,2"],
        ["--tiles", "9,9"], ["--perfectize"], ["--rvb"]],
        ids=["ii-and-tiles", "ii", "perm", "tiles", "perfectize", "rvb"])
    def test_point_flags_and_emit_dse_exclude_each_other(self, flags,
                                                         monkeypatch):
        self.nothing_loads(monkeypatch)
        with pytest.raises(SystemExit) as raised:
            main(["emit", "--kernel", "gemm", "--size", "4", "--dse"] + flags)
        assert str(raised.value) == f"{flags[0]} and --dse exclude each other"

    @pytest.mark.parametrize("flags", [
        ["--jobs", "0"], ["--samples", "5"], ["--seed", "3"],
        ["--cache", "c.jsonl"], ["--register-pipeline", "lean=cse"],
        ["--checkpoint-every", "4"], ["--on-fault", "fail"],
        ["--inject-faults", "crash:select=1"], ["--smoke"],
        ["--frontier-out", "f.json"]],
        ids=lambda flags: flags[0])
    def test_dnn_without_dse_reads_no_sweep_flag(self, flags, monkeypatch):
        self.nothing_loads(monkeypatch)
        with pytest.raises(SystemExit) as raised:
            main(["dnn", "vgg16"] + flags)
        assert str(raised.value) == f"{flags[0]} applies only with --dse"

    def test_dnn_dse_reads_no_loop_level(self, monkeypatch):
        self.nothing_loads(monkeypatch)
        with pytest.raises(SystemExit) as raised:
            main(["dnn", "vgg16", "--dse", "--loop-level", "2"])
        assert str(raised.value) == "--loop-level does not apply with --dse"

    def test_a_flag_at_its_default_is_no_error(self, monkeypatch):
        import repro.tools.driver as driver

        modes = []
        monkeypatch.setattr(driver, "run_dnn_dse",
                            lambda args: modes.append("dse") or 0)
        monkeypatch.setattr(driver, "dnn_baseline",
                            lambda *args, **kwargs: modes.append("compile")
                            or 1 / 0)
        assert main(["dnn", "vgg16", "--dse", "--loop-level", "3"]) == 0
        with pytest.raises(ZeroDivisionError):
            main(["dnn", "vgg16", "--jobs", "1", "--seed", "2022"])
        assert modes == ["dse", "compile"]

    @pytest.mark.parametrize("flag", ["--platform", "--platform-config"])
    def test_compile_takes_no_platform(self, flag, capsys):
        with pytest.raises(SystemExit):
            main(["compile", "--kernel", "gemm", "--size", "4", flag, "x"])
        assert capsys.readouterr().err.endswith(
            f"unrecognized arguments: {flag}\n")


class TestSweepSettings:
    """Every sweep setting is declared once: the ``explore_*`` flows and the
    ``dse`` / ``dnn`` commands all spell the fields of ``SweepConfig``."""

    FIELDS = {field.name for field in dataclasses.fields(SweepConfig)}
    #: The budgets whose defaults differ per flow, declared once per flow
    #: (``KERNEL_BUDGET`` / ``DNN_BUDGET``) and read by the driver.
    BUDGETS = {"num_samples", "max_iterations", "batch_size",
               "checkpoint_every"}
    OWN = {"explore_kernel": {"checkpoint_dir", "func_name",
                              "max_evaluations", "keep_design"},
           "explore_module_kernels": {"checkpoint_dir", "func_names",
                                      "keep_design"},
           "explore_dnn": {"checkpoint_dir", "graph_level", "max_nodes",
                           "max_evaluations"}}
    FLOW_BUDGETS = {"explore_kernel": ("dse", pipeline.KERNEL_BUDGET),
                    "explore_module_kernels": ("dse", pipeline.KERNEL_BUDGET),
                    "explore_dnn": ("dnn", pipeline.DNN_BUDGET)}

    @staticmethod
    def keywords(function):
        parameters = inspect.signature(function).parameters.values()
        return ({parameter.name for parameter in parameters
                 if parameter.kind is parameter.KEYWORD_ONLY},
                [parameter.name for parameter in parameters
                 if parameter.kind is parameter.VAR_KEYWORD])

    @pytest.mark.parametrize("name", sorted(OWN))
    def test_explore_keywords_are_sweep_fields_or_the_flows_own(self, name):
        declared, forwarded = self.keywords(getattr(pipeline, name))
        assert declared == self.OWN[name]
        assert forwarded == ["sweep"]  # everything else: SweepConfig fields
        command, budget = self.FLOW_BUDGETS[name]
        assert set(budget) == self.BUDGETS <= self.FIELDS
        # The command's defaults are the flow's.
        args = build_parser().parse_args([command])
        assert (args.samples, args.iterations, args.batch_size,
                args.checkpoint_every) == tuple(
            budget[field] for field in ("num_samples", "max_iterations",
                                        "batch_size", "checkpoint_every"))

    @pytest.mark.parametrize("call", [
        lambda: pipeline.explore_kernel(None, jobz=2),
        lambda: pipeline.explore_kernel(None, cache_path="x"),
        lambda: pipeline.explore_module_kernels(None, task_timeout=1.0),
        lambda: pipeline.explore_kernel(None, max_retries=1),
        lambda: pipeline.explore_kernel(None, on_fault="fail"),
        lambda: pipeline.explore_dnn("vgg16", frontier_cap=8),
        lambda: pipeline.explore_dnn("vgg16", max_evaluations_per_node=2)],
        ids=["jobz", "cache_path", "task_timeout", "max_retries", "on_fault",
             "frontier_cap", "max_evaluations_per_node"])
    def test_a_sweep_keyword_is_a_field_name_or_nothing(self, call):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call()

    def test_every_field_reaches_the_sweep_by_name(self, monkeypatch):
        from repro.dse.runtime import scheduler

        configs = []

        def recording(tasks, platform, config, **kwargs):
            configs.append(config)
            return {task.key: None for task in tasks}

        monkeypatch.setattr(scheduler, "explore_kernels", recording)
        pipeline.explore_kernel(
            pipeline.compile_kernel("gemm", 4),
            **{name: getattr(SweepConfig(), name) for name in self.FIELDS})
        assert configs == [SweepConfig()]

    def test_dse_and_dnn_list_the_same_sweep_flags(self, capsys):
        def flags(command):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))

        shared = {"--samples", "--iterations", "--seed", "--jobs",
                  "--batch-size", "--cache",
                  "--register-pipeline", "--checkpoint",
                  "--checkpoint-every", "--task-timeout",
                  "--max-retries", "--on-fault",
                  "--platform", "--platform-config", "--frontier-out"}
        dse_flags, dnn_flags = flags("dse"), flags("dnn")
        assert shared <= dse_flags and shared <= dnn_flags
        own = {"--all-functions", "--kernel", "--size", "--dse", "--smoke",
               "--graph-level", "--loop-level"}
        assert dse_flags - shared - own == dnn_flags - shared - own


SWEEPS = {"dse": ["dse", "--kernel", "gemm", "--size", "8", "--samples", "2",
                  "--iterations", "1"],
          "dnn": ["dnn", "mobilenet", "--dse", "--smoke"]}


class TestSweepFlagValidation:
    """Nonsensical sweep flags are rejected up front, naming the flag."""

    def test_zero_task_timeout_rejected(self):
        with pytest.raises(SystemExit, match="--task-timeout must be a "
                                             "positive number"):
            main(SWEEPS["dse"] + ["--task-timeout", "0"])

    def test_negative_max_retries_rejected(self):
        with pytest.raises(SystemExit, match="--max-retries must be >= 0"):
            main(SWEEPS["dse"] + ["--max-retries", "-1"])

    def test_dnn_validates_supervision_flags_too(self):
        with pytest.raises(SystemExit, match="--task-timeout"):
            main(SWEEPS["dnn"] + ["--task-timeout", "-3"])

    @pytest.mark.parametrize("command", sorted(SWEEPS))
    @pytest.mark.parametrize("flag,value,least", [
        ("--jobs", "-2", 1), ("--jobs", "0", 1),
        ("--batch-size", "0", 1), ("--checkpoint-every", "-4", 1),
        ("--samples", "-3", 1), ("--samples", "0", 1),
        ("--iterations", "-1", 0)])
    def test_nonsense_budget_rejected(self, command, flag, value, least,
                                      monkeypatch):
        import repro.tools.driver as driver

        def load(*args, **kwargs):
            raise AssertionError("loaded before the flags were checked")

        monkeypatch.setattr(driver, "_load_module", load)
        monkeypatch.setattr(driver, "_resolve_platforms", load)
        with pytest.raises(SystemExit, match=f"{flag} must be >= {least}, "
                                             f"got {value}"):
            main(SWEEPS[command] + [flag, value])

    @pytest.mark.parametrize("dse", [False, True], ids=["dnn", "dnn-dse"])
    @pytest.mark.parametrize("flag", ["--graph-level", "--loop-level"])
    @pytest.mark.parametrize("value", ["-3", "-1", "8", "20"])
    def test_dnn_levels_outside_the_papers_are_rejected(self, dse, flag, value,
                                                        monkeypatch):
        import repro.pipeline as pipeline
        import repro.tools.driver as driver

        def load(*args, **kwargs):
            raise AssertionError("loaded before the levels were checked")

        for owner, name in ((driver, "_resolve_platforms"),
                            (driver, "dnn_baseline"), (driver, "compile_dnn"),
                            (pipeline, "explore_dnn")):
            monkeypatch.setattr(owner, name, load)
        argv = ["dnn", "vgg16"] + (["--dse", "--smoke"] if dse else [])
        with pytest.raises(SystemExit, match=f"{flag} must be in 0..7, "
                                             f"got {value}"):
            main(argv + [flag, value])

    @pytest.mark.parametrize("command", sorted(SWEEPS))
    def test_the_cache_bound_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit):
            main(SWEEPS[command] + ["--cache-max-bytes", "4096"])
        assert "unrecognized arguments: --cache-max-bytes" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SWEEPS))
    @pytest.mark.parametrize("flag", ["--listen", "--workers"])
    def test_socket_transport_flags_are_gone(self, command, flag, capsys):
        with pytest.raises(SystemExit):
            main(SWEEPS[command] + [flag, "2"])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_worker_agent_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["worker-agent", "--connect", "127.0.0.1:1"])
        assert "invalid choice: 'worker-agent'" in capsys.readouterr().err


class TestInterruptHint:
    """A Ctrl-C ends in one line that says how to continue the sweep."""

    @staticmethod
    def interrupted(monkeypatch, capsys, argv) -> str:
        from repro.dse.runtime import scheduler

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(scheduler, "_explore_trajectory", interrupt)
        assert main(argv) == 130
        return capsys.readouterr().err

    @pytest.mark.parametrize("stores", [["--cache", "c.jsonl"],
                                        ["--checkpoint", "ckpt"],
                                        ["--cache", "c.jsonl",
                                         "--checkpoint", "ckpt"]],
                             ids=["cache", "checkpoint", "both"])
    @pytest.mark.parametrize("command", sorted(SWEEPS))
    def test_the_same_command_continues(self, command, stores, tmp_path,
                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        err = self.interrupted(monkeypatch, capsys, SWEEPS[command] + stores)
        assert err == "interrupted — re-run the same command to continue\n"

    def test_without_a_store_the_hint_names_the_flag(self, monkeypatch,
                                                     capsys):
        err = self.interrupted(monkeypatch, capsys, SWEEPS["dse"])
        assert "add --checkpoint DIR" in err


class TestTheCacheFlag:
    """The driver opens the ``--cache`` file, closes it however the command
    ends, and leaves a file that is not a cache as it found it."""

    @pytest.fixture
    def caches(self, monkeypatch):
        """Every ``EstimateCache`` created, and every one closed."""
        created, closed = [], []
        init, close = EstimateCache.__init__, EstimateCache.close

        def recording_init(cache, *args, **kwargs):
            created.append(cache)
            init(cache, *args, **kwargs)

        def recording_close(cache):
            closed.append(cache)
            close(cache)

        monkeypatch.setattr(EstimateCache, "__init__", recording_init)
        monkeypatch.setattr(EstimateCache, "close", recording_close)
        return created, closed

    @pytest.mark.parametrize("interrupt", [False, True],
                             ids=["finished", "interrupted"])
    @pytest.mark.parametrize("command", sorted(SWEEPS))
    def test_every_cache_the_driver_opens_is_closed(
            self, command, interrupt, caches, tmp_path, monkeypatch, capsys):
        from repro.dse.runtime import scheduler

        monkeypatch.chdir(tmp_path)  # dnn --dse writes its frontier file here
        if interrupt:
            trajectory = scheduler._explore_trajectory

            def interrupting(*args):
                trajectory(*args)
                raise KeyboardInterrupt

            monkeypatch.setattr(scheduler, "_explore_trajectory", interrupting)
        status = main(SWEEPS[command] + ["--cache", "c.jsonl"])
        assert status == (130 if interrupt else 0)
        created, closed = caches
        assert len(created) == 1
        assert [id(cache) for cache in closed] == [id(created[0])]

    def test_a_file_that_is_not_a_cache_is_refused_and_kept(self, tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_bytes(b"line one\nline two\n")
        with pytest.raises(SystemExit) as raised:
            main(SWEEPS["dse"] + ["--cache", str(notes)])
        assert str(raised.value).startswith(f"--cache: {str(notes)!r} is not "
                                            f"an estimate cache")
        assert notes.read_bytes() == b"line one\nline two\n"


class TestPlatformFlags:
    def test_multi_platform_dse_reports_per_platform(self, capsys):
        assert main(["dse", "--kernel", "gemm", "--size", "8",
                     "--samples", "4", "--iterations", "4",
                     "--platform", "xc7z020", "--platform", "vu9p-slr"]) == 0
        output = capsys.readouterr().out
        assert "per-platform Pareto frontiers" in output
        assert "[xc7z020] finalized" in output
        assert "[vu9p-slr] finalized" in output

    def test_frontier_out_stable_across_jobs(self, tmp_path, capsys):
        base = ["dse", "--kernel", "gemm", "--size", "8",
                "--samples", "4", "--iterations", "4",
                "--platform", "xc7z020", "--platform", "vu9p-slr"]
        serial, threaded = tmp_path / "j1.json", tmp_path / "j2.json"
        assert main(base + ["--frontier-out", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--frontier-out", str(threaded)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == threaded.read_bytes()
        document = __import__("json").loads(serial.read_text())
        assert sorted(document["platform_frontiers"]) == ["vu9p-slr", "xc7z020"]

    def test_platform_config_file_defines_the_sweep(self, tmp_path, capsys):
        config = tmp_path / "platforms.json"
        config.write_text(
            '{"platforms": [{"name": "tiny", "memory_bits": 1000000, '
            '"dsp": 60, "lut": 20000}]}')
        assert main(["estimate", "--kernel", "gemm", "--size", "8",
                     "--platform-config", str(config)]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_platform_config_errors_are_actionable(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text('{"platforms": [{"name": "x"}]}')
        with pytest.raises(SystemExit, match="platform-config"):
            main(["estimate", "--kernel", "gemm", "--size", "8",
                  "--platform-config", str(config)])

    def test_single_target_commands_reject_sweeps(self):
        with pytest.raises(SystemExit, match="single platform"):
            main(["estimate", "--kernel", "gemm", "--size", "8",
                  "--platform", "xc7z020", "--platform", "vu9p-slr"])


class TestPipelineFlags:
    def test_estimate_accepts_pipeline(self, capsys):
        assert main(["estimate", "--kernel", "gemm", "--size", "8",
                     "--pipeline",
                     "func.func(raise-scf-to-affine,canonicalize,cse)"]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_emit_accepts_pipeline(self, tmp_path, capsys):
        target = tmp_path / "kernel.cpp"
        assert main(["emit", "--kernel", "gemm", "--size", "8",
                     "--pipeline", "func.func(raise-scf-to-affine,canonicalize)",
                     "--perfectize", "--tiles", "1,1,2", "-o", str(target)]) == 0
        assert "void gemm(" in target.read_text()

    def test_estimate_rejects_bad_pipeline(self):
        with pytest.raises(Exception):
            main(["estimate", "--kernel", "gemm", "--size", "8",
                  "--pipeline", "func.func(not-a-pass)"])

    @pytest.mark.parametrize("registered,indices,names", [
        ([], 7, {"default"}),
        (["--register-pipeline", "test-lean=canonicalize,cse"], 8,
         {"default", "test-lean"})], ids=["built-in", "second-registered"])
    def test_a_registered_pipeline_is_explored(self, tmp_path, capsys,
                                               registered, indices, names):
        # Cleanups are decided: only a second registered pipeline makes the
        # cleanup a dimension of the space (gemm: 3 + 3 tiles + II indices).
        import json

        import cleanups

        cache = tmp_path / "cache.jsonl"
        with cleanups.registered({}):  # the flag registers process-wide
            assert main(["dse", "--kernel", "gemm", "--size", "4",
                         "--samples", "6", "--iterations", "6", "--jobs", "2",
                         "--cache", str(cache), *registered]) == 0
        records = [json.loads(line)["record"]
                   for line in cache.read_text().splitlines()]
        assert {len(record["encoded"]) for record in records} == {indices}
        assert {record["point"]["pipeline"] for record in records} == names


class TestInstrumentationFlags:
    def test_print_pass_timing_includes_pattern_stats(self, capsys):
        assert main(["compile", "--kernel", "gemm", "--size", "8",
                     "--print-pass-timing"]) == 0
        output = capsys.readouterr().out
        assert "Pass execution timing report" in output
        assert "Rewrite pattern statistics" in output
        assert "hits" in output

    def test_dump_ir_after_writes_numbered_snapshots(self, tmp_path, capsys):
        dump_dir = tmp_path / "dumps"
        assert main(["compile", "--kernel", "gemm", "--size", "8",
                     "--dump-ir-after", "canonicalize",
                     "--dump-ir-dir", str(dump_dir)]) == 0
        snapshots = sorted(p.name for p in dump_dir.iterdir())
        assert snapshots == ["0001-canonicalize.mlir"]
        assert "affine.for" in (dump_dir / snapshots[0]).read_text()

    def test_dump_ir_after_all(self, tmp_path):
        dump_dir = tmp_path / "dumps"
        assert main(["compile", "--kernel", "gemm", "--size", "8",
                     "--dump-ir-after", "all",
                     "--dump-ir-dir", str(dump_dir)]) == 0
        snapshots = sorted(p.name for p in dump_dir.iterdir())
        assert len(snapshots) >= 2  # raise-scf-to-affine + canonicalize
        assert snapshots[0].startswith("0001-")

    def test_dump_ir_after_resolves_aliases(self, tmp_path):
        dump_dir = tmp_path / "dumps"
        # 'loop-unroll' is an alias of 'affine-loop-unroll'; resolution must
        # succeed even though the pass does not run in the compile flow.
        assert main(["compile", "--kernel", "gemm", "--size", "8",
                     "--dump-ir-after", "loop-unroll",
                     "--dump-ir-dir", str(dump_dir)]) == 0
        assert not dump_dir.exists()  # nothing dumped, nothing created

    def test_dump_ir_after_unknown_pass_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown pass"):
            main(["compile", "--kernel", "gemm", "--size", "8",
                  "--dump-ir-after", "not-a-pass",
                  "--dump-ir-dir", str(tmp_path / "dumps")])

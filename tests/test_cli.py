"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import _experiment_config, build_parser, main
from repro.runtime import RunCache


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["list"]).command == "list"
        assert parser.parse_args(["figure7"]).command == "figure7"
        args = parser.parse_args(["table1", "--tests", "sort2", "--inputs", "30"])
        assert args.tests == ["sort2"] and args.inputs == 30
        assert parser.parse_args(["train", "svd"]).test == "svd"

    def test_serve_command_parses(self):
        args = build_parser().parse_args(
            ["serve", "--tests", "sort2", "svd", "--port", "0", "--max-pending", "8"]
        )
        assert args.command == "serve"
        assert args.tests == ["sort2", "svd"]
        assert args.port == 0
        assert args.max_pending == 8
        assert args.execution_workers == 1
        # serve shares the scale/runtime flags with train/table1.
        assert _experiment_config(args).n_inputs == args.inputs

    def test_memory_flags_parse_with_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
        monkeypatch.delenv("REPRO_STREAM_INPUTS", raising=False)
        args = build_parser().parse_args(["train", "sort2"])
        assert args.cache_max_entries == RunCache.DEFAULT_MAX_ENTRIES
        assert args.stream_inputs is True
        config = _experiment_config(args)
        assert config.cache_max_entries == RunCache.DEFAULT_MAX_ENTRIES
        assert config.stream_inputs is True

    def test_memory_flags_override(self):
        args = build_parser().parse_args(
            ["train", "sort2", "--cache-max-entries", "128", "--no-stream-inputs"]
        )
        config = _experiment_config(args)
        assert config.cache_max_entries == 128
        assert config.stream_inputs is False

    def test_cache_cap_zero_means_unbounded(self):
        args = build_parser().parse_args(["train", "sort2", "--cache-max-entries", "0"])
        assert _experiment_config(args).cache_max_entries is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "sort2", "--batch-chunk", "0"],
            ["train", "sort2", "--batch-chunk", "many"],
            ["train", "sort2", "--executor", "process", "--workers", "-1"],
            ["train", "sort2", "--workers", "0"],
            ["train", "sort2", "--executor", "distributed"],
            ["train", "sort1", "--inputs", "2"],
            ["train", "sort1", "--clusters", "0"],
            ["train", "sort1", "--generations", "0"],
            ["profile", "sort1", "--top", "0"],
            ["serve", "--max-pending", "0"],
            ["serve", "--execution-workers", "0"],
            ["serve", "--port", "70000"],
            ["serve", "--port", "-1"],
            ["train", "sort1", "--checkpoint"],
            ["train", "sort1", "--resume"],
            ["chaos", "experiment", "--preset", "store-write-fail", "--fault-seed", "1"],
            ["chaos", "load", "--requests", "0"],
            ["chaos", "load", "--unique-inputs", "0"],
            ["chaos", "load", "--clients", "0"],
            ["chaos", "experiment", "--replays", "0"],
            ["chaos", "experiment", "--preset", "shard-torn-write"],
            ["train", "sort1", "--executor", "thread"],
            ["table1", "--executor", "thread"],
            ["profile", "sort1", "--executor", "thread"],
            ["serve", "--executor", "thread"],
            ["chaos", "load", "--executor", "thread"],
            ["adapt-replay", "--executor", "thread"],
        ],
    )
    def test_invalid_values_exit_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["bogus", "thread"])
    def test_unknown_env_executor_warns_and_runs_serially(self, monkeypatch, value):
        """An unknown REPRO_EXECUTOR used to pass argparse as the default
        and then end the run in a ValueError traceback."""
        monkeypatch.setenv("REPRO_EXECUTOR", value)
        with pytest.warns(UserWarning, match="REPRO_EXECUTOR"):
            parser = build_parser()
        args = parser.parse_args(["train", "sort2"])
        assert _experiment_config(args).executor == "serial"
        assert parser.parse_args(["adapt-replay"]).executor == "serial"

    def test_known_env_executor_is_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        parser = build_parser()
        assert parser.parse_args(["train", "sort2"]).executor == "process"
        assert parser.parse_args(["adapt-replay"]).executor == "process"
        # The flag still overrides the environment.
        args = parser.parse_args(["train", "sort2", "--executor", "serial"])
        assert _experiment_config(args).executor == "serial"

    def test_stream_inputs_flag_overrides_env_opt_out(self, monkeypatch):
        """REPRO_STREAM_INPUTS=0 sets the default off, and --stream-inputs
        must still be able to turn streaming back on."""
        monkeypatch.setenv("REPRO_STREAM_INPUTS", "0")
        parser = build_parser()
        assert parser.parse_args(["train", "sort2"]).stream_inputs is False
        args = parser.parse_args(["train", "sort2", "--stream-inputs"])
        assert _experiment_config(args).stream_inputs is True


class TestCommands:
    def test_list_prints_all_tests(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("sort1", "sort2", "binpacking", "helmholtz3d"):
            assert name in output

    def test_figure7_prints_curves(self, capsys):
        assert main(["figure7"]) == 0
        output = capsys.readouterr().out
        assert "Figure 7a" in output and "Figure 7b" in output

    def test_table1_rejects_unknown_test(self, capsys):
        assert main(["table1", "--tests", "bogus"]) == 2

    def test_train_rejects_unknown_test(self, capsys):
        assert main(["train", "bogus"]) == 2

    def test_train_runs_tiny_experiment(self, capsys):
        code = main(
            ["train", "sort2", "--inputs", "24", "--clusters", "3", "--generations", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "production classifier" in output
        assert "dynamic_oracle" in output

    def test_runtime_stats_show_every_task_executed(self, capsys):
        code = main(
            ["train", "sort2", "--inputs", "24", "--clusters", "3", "--generations", "2",
             "--runtime-stats"]
        )
        assert code == 0
        output = capsys.readouterr().out
        tasks = re.search(r"^  tasks: (\d+) requested, (\d+) executed$", output, re.MULTILINE)
        assert tasks is not None
        requested, executed = int(tasks.group(1)), int(tasks.group(2))
        assert requested == executed > 0
        assert "executor fallback:" not in output

    def test_adapt_replay_runtime_stats_show_runs_phases_and_adaptation(self, capsys):
        assert main(["adapt-replay", "--scale", "small", "--runtime-stats"]) == 0
        output = capsys.readouterr().out
        runs = re.search(r"^  runs: (\d+) requested,", output, re.MULTILINE)
        assert runs is not None and int(runs.group(1)) > 0
        assert re.search(r"^  phase adapt\.replay\.train: ", output, re.MULTILINE)
        assert re.search(
            r"^  adaptation: \d+ retrain\(s\), \d+ swap\(s\), \d+ rejected, \d+ failed$",
            output,
            re.MULTILINE,
        )

    def test_table1_runs_tiny_experiment(self, capsys):
        code = main(
            ["table1", "--tests", "svd", "--inputs", "24", "--clusters", "3", "--generations", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "svd" in output and "Dynamic Oracle" in output

    def test_chaos_store_write_fail_replays_execute_and_save(
        self, tmp_path, capsys, monkeypatch
    ):
        """Neither the fault-free baseline nor an earlier replay fills a
        replay's store, so every replay executes its runs and meets both
        failed saves; the file at ``--cache-path`` is left as it was."""
        from repro.resilience import chaos

        reports = []
        run_chaos_experiment = chaos.run_chaos_experiment

        def recording(*args, **kwargs):
            reports.append(run_chaos_experiment(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(chaos, "run_chaos_experiment", recording)
        store = tmp_path / "store.db"
        store.write_bytes(b"the user's file")
        argv = ["chaos", "experiment", "sort2", "--preset", "store-write-fail",
                "--cache-path", str(store), "--inputs", "24",
                "--clusters", "3", "--generations", "2", "--replays", "2"]
        with pytest.warns(UserWarning, match=r" [1-9][0-9]* entries stay unsaved"):
            assert main(argv) == 0
        assert "all invariants held" in capsys.readouterr().out
        assert [report["compared"]["fired"] for report in reports] == [
            {"cache.save": 2},
            {"cache.save": 2},
        ]
        assert store.read_bytes() == b"the user's file"

    def test_chaos_replay_stores_leave_no_file_behind(self, tmp_path, monkeypatch, capsys):
        """The replays' stores live in a temporary directory removed at the
        end; no file is made at ``--cache-path``."""
        import tempfile

        temp_root = tmp_path / "temp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        store = tmp_path / "store.db"
        argv = ["chaos", "experiment", "sort2", "--preset", "store-write-fail",
                "--cache-path", str(store), "--inputs", "24",
                "--clusters", "3", "--generations", "2", "--replays", "1"]
        with pytest.warns(UserWarning, match="stay unsaved"):
            assert main(argv) == 0
        assert "all invariants held" in capsys.readouterr().out
        assert not store.exists()
        assert list(temp_root.iterdir()) == []

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file"),
            ("not json{", "Expecting value"),
            ('{"faults": [{"action": "raise", "nth": 1}]}', "'site'"),
        ],
    )
    def test_chaos_bad_plan_file_exits_2_with_one_line(self, tmp_path, capsys, content, reason):
        path = tmp_path / "plan.json"
        if content is not None:
            path.write_text(content)
        assert main(["chaos", "experiment", "sort1", "--plan", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert captured.err.count("\n") == 1
        assert str(path) in captured.err and reason in captured.err

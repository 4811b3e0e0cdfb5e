"""Tests for the serving load generator (trace shape + measured metrics)."""

import importlib.util
import os
import subprocess
import sys

import pytest

from repro.serving import build_trace, run_load
from repro.serving.server import ServingConfig

# Everything here touches real sockets; a refused connect is retried by
# ServingClient's connect loop (see repro.serving.client).

class TestBuildTrace:
    def test_covers_every_unique_index(self):
        trace = build_trace(16, 5, seed=3)
        assert len(trace) == 16
        assert set(trace) == set(range(5))

    def test_deterministic_per_seed(self):
        assert build_trace(32, 8, seed=1) == build_trace(32, 8, seed=1)
        assert build_trace(32, 8, seed=1) != build_trace(32, 8, seed=2)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            build_trace(4, 5)
        with pytest.raises(ValueError):
            build_trace(4, 0)


class TestRunLoad:
    def test_duplicate_heavy_trace_executes_each_unique_once(self, sort_training):
        metrics = run_load(
            "sort2",
            sort_training["training"].deployed,
            requests=12,
            unique_inputs=4,
            clients=2,
            trace_seed=0,
            input_seed=777,
            config=ServingConfig(max_pending=16),
        )
        assert metrics["requests"] == 12
        assert metrics["duplicate_fraction"] >= 0.5
        assert metrics["each_unique_executed_at_most_once"] is True
        assert metrics["executions"] <= 4
        assert metrics["rejected"] == 0
        assert metrics["labels_clamped"] == 0
        # Every request is exactly one of: fresh execution, coalesced join,
        # or run-cache recall.
        assert (
            metrics["executions"] + metrics["coalesced"] + metrics["cache_hits"]
            == metrics["requests"]
        )
        assert metrics["throughput_rps"] > 0.0
        assert metrics["selection_p99_ms"] >= metrics["selection_p50_ms"] >= 0.0
        assert metrics["request_p99_ms"] >= metrics["request_p50_ms"] > 0.0


class TestLoadgenScript:
    def test_bad_integer_exits_with_usage_before_training(self):
        """A bad value used to surface as a traceback after training."""
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        env = dict(os.environ)
        src = os.path.abspath(os.path.join(root, "src"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(root, "scripts", "loadgen.py"),
                *("--clients", "0", "--inputs", "24", "--clusters", "3"),
                *("--generations", "2"),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage:")
        assert "argument --clients: must be >= 1" in proc.stderr.splitlines()[-1]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--requests", "0"),
            ("--unique-inputs", "0"),
            ("--clients", "-1"),
            ("--inputs", "3"),
            ("--clusters", "0"),
            ("--generations", "0"),
            ("--max-pending", "0"),
            ("--execution-workers", "0"),
            ("--requests", "many"),
        ],
    )
    def test_each_integer_option_is_checked_at_parse_time(
        self, monkeypatch, capsys, flag, value
    ):
        path = os.path.join(os.path.dirname(__file__), "..", "..", "scripts", "loadgen.py")
        spec = importlib.util.spec_from_file_location("loadgen_script", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)

        def train(*_args, **_kwargs):
            raise AssertionError("trained before the command line was checked")

        monkeypatch.setattr(script, "run_experiment", train)
        with pytest.raises(SystemExit) as exit_info:
            script.main([flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}:" in err

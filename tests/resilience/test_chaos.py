"""End-to-end chaos tests: replay determinism, degraded serving, kill+rerun.

These are the acceptance checks of the resilience work (see
docs/resilience.md): a seeded fault plan replays bit-for-bit; a serving
stack under execution failures degrades instead of dropping requests; a
run SIGKILLed mid-measurement, run again on the same store, gives the
bit-identical result an uninterrupted run produces.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import textwrap

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.resilience.chaos import (
    PRESETS,
    experiment_digest,
    preset_plan,
    run_chaos_experiment,
    run_chaos_load,
)
from repro.resilience.faults import FaultPlan, FaultSpec


def tiny_config(**overrides) -> ExperimentConfig:
    settings = dict(
        n_inputs=24,
        n_clusters=3,
        tuner_generations=2,
        tuner_population=5,
        tuning_neighbors=2,
        max_subsets=12,
        seed=0,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


@pytest.fixture(scope="module")
def clean_digest():
    """Digest of the tiny sort1 experiment run without a store."""
    return experiment_digest(run_experiment("sort1", config=tiny_config()))


def stored_runs(path):
    """How many runs the store at ``path`` holds."""
    db = sqlite3.connect(path)
    try:
        return db.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
    finally:
        db.close()


class TestPresets:
    def test_all_presets_build_valid_plans(self):
        for name in PRESETS:
            plan = preset_plan(name)
            assert plan.faults
            assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            preset_plan("no-such-preset")


class TestChaosExperiment:
    def test_store_write_failures_replay_identically_and_match_baseline(
        self, tmp_path, clean_digest
    ):
        """Same plan, two replays: identical reports, baseline-identical data,
        and the runs of the two failed saves reach the store later."""
        plan = preset_plan("store-write-fail")
        reports = []
        for replay in range(2):
            store = str(tmp_path / f"store-{replay}.db")
            # The runtime saves at every chunk, so the runs the two failed
            # saves kept must reach the store through a later one.
            config = tiny_config(cache_path=store, batch_chunk=64)
            with pytest.warns(UserWarning, match="stay unsaved"):
                reports.append(
                    run_chaos_experiment(
                        "sort1", plan, config=config, baseline_digest=clean_digest
                    )
                )
            warm = run_experiment("sort1", config=tiny_config(cache_path=store))
            counters = warm.runtime_stats["telemetry"]["counters"]
            assert counters["runs_requested"] > 0
            assert counters.get("runs_executed", 0) == 0
        assert reports[0]["digest"] == reports[1]["digest"]
        assert reports[0]["compared"] == reports[1]["compared"]
        for report in reports:
            assert report["compared"]["invariants"] == {
                "completed": True,
                "matches_baseline": True,
            }
            assert report["compared"]["result_digest"] == clean_digest
            assert report["diagnostics"]["faults"]["fired"] == {"cache.save": 2}

    def test_replay_on_a_filled_store_meets_no_fault_and_diverges(
        self, tmp_path, clean_digest
    ):
        """A replay answered from the runs an earlier one saved never reaches
        ``cache.save``: its results agree, but its report must not."""
        plan = preset_plan("store-write-fail")
        config = tiny_config(cache_path=str(tmp_path / "store.db"), batch_chunk=64)
        with pytest.warns(UserWarning, match="stay unsaved"):
            fresh = run_chaos_experiment(
                "sort1", plan, config=config, baseline_digest=clean_digest
            )
        filled = run_chaos_experiment(
            "sort1", plan, config=config, baseline_digest=clean_digest
        )
        assert fresh["compared"]["fired"] == {"cache.save": 2}
        assert filled["compared"]["fired"] == {}
        assert filled["compared"]["fired"] == filled["diagnostics"]["faults"]["fired"]
        assert filled["compared"]["result_digest"] == fresh["compared"]["result_digest"]
        assert filled["compared"]["invariants"] == fresh["compared"]["invariants"]
        assert filled["digest"] != fresh["digest"]

    def test_failed_run_reports_completed_false(self, tmp_path):
        """A plan the runtime cannot absorb yields a failed-invariant report,
        not an exception out of the harness."""
        plan = FaultPlan(
            faults=[FaultSpec(site="runtime.chunk", action="raise", nth=1)]
        )
        config = tiny_config(batch_chunk=4, cache_path=str(tmp_path / "store.db"))
        report = run_chaos_experiment("sort1", plan, config=config)
        assert report["compared"]["invariants"]["completed"] is False
        assert report["compared"]["result_digest"] is None
        assert "error" in report["diagnostics"]


class TestChaosLoad:
    def test_brownout_replays_identically_with_degraded_service(
        self, sort_training
    ):
        deployed = sort_training["training"].deployed
        plan = preset_plan("serve-brownout")
        reports = [
            run_chaos_load("sort2", deployed, plan, requests=24, unique_inputs=6)
            for _ in range(2)
        ]
        assert reports[0]["digest"] == reports[1]["digest"]
        assert reports[0]["compared"] == reports[1]["compared"]
        for report in reports:
            assert report["compared"]["invariants"] == {
                "answered_all": True,
                "breaker_opened": True,
                "served_degraded": True,
            }


def run_python(tmp_path, script, *args):
    """Run ``script`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = tmp_path / "script.py"
    path.write_text(script)
    return subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def printed(proc, tag):
    """The value a script printed after ``tag``."""
    return [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(tag)][0]


RUNNER_SCRIPT = textwrap.dedent(
    """
    import contextlib
    import sys

    from repro.experiments.runner import ExperimentConfig, run_experiment
    from repro.resilience.chaos import experiment_digest
    from repro.resilience.faults import FaultPlan, FaultSpec, fault_scope

    mode, store = sys.argv[1], sys.argv[2]
    config = ExperimentConfig(
        n_inputs=24,
        n_clusters=3,
        tuner_generations=2,
        tuner_population=5,
        tuning_neighbors=2,
        max_subsets=12,
        seed=0,
        batch_chunk=4,
        cache_path=None if mode == "clean" else store,
    )
    kill = FaultPlan(faults=[FaultSpec(site="runtime.chunk", action="kill", nth=6)])
    with fault_scope(kill) if mode == "kill" else contextlib.nullcontext():
        result = run_experiment("sort1", config=config)
    print("DIGEST", experiment_digest(result))
    print("EXECUTED", result.runtime_stats["telemetry"]["counters"]["runs_executed"])
    """
)


class TestKillAndResume:
    """SIGKILL mid-measurement, then the same run again on the same store."""

    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        store = str(tmp_path / "store.db")
        killed = run_python(tmp_path, RUNNER_SCRIPT, "kill", store)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        # The sixth chunk boundary saved every run before the kill fired.
        saved = stored_runs(store)
        assert saved > 0

        rerun = run_python(tmp_path, RUNNER_SCRIPT, "rerun", store)
        assert rerun.returncode == 0, rerun.stderr
        clean = run_python(tmp_path, RUNNER_SCRIPT, "clean", store)
        assert clean.returncode == 0, clean.stderr
        assert printed(rerun, "DIGEST") == printed(clean, "DIGEST")
        # Every saved run is recalled; only the rest execute.
        assert int(printed(rerun, "EXECUTED")) == int(printed(clean, "EXECUTED")) - saved


TABLE1_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.cli import main
    from repro.resilience.faults import FaultPlan, FaultSpec, fault_scope

    sys.stdout.reconfigure(line_buffering=True)  # a SIGKILL flushes nothing
    kill = FaultPlan(faults=[FaultSpec(site="runtime.chunk", action="kill", nth=int(sys.argv[1]))])
    with fault_scope(kill):
        main(sys.argv[2:])
    """
)


class TestTable1KillAndRerun:
    def test_table1_killed_inside_its_second_test_reruns_to_the_clean_table(
        self, tmp_path, capsys
    ):
        """The run the resume manifest refused: a multi-test ``table1`` on
        one store, killed inside sort2 and run again, prints the table of an
        uninterrupted run."""
        from repro.cli import _experiment_config, build_parser, main

        argv = ["table1", "--tests", "sort1", "sort2", "--inputs", "24", "--clusters", "3",
                "--generations", "2", "--batch-chunk", "64"]
        config = _experiment_config(build_parser().parse_args(argv))
        sort1 = run_experiment("sort1", config=config).runtime_stats["telemetry"]["counters"]

        def table(output):
            return [line for line in output.splitlines() if not line.startswith("#")]

        store = str(tmp_path / "store.db")
        stored = argv + ["--cache-path", store]
        killed = run_python(tmp_path, TABLE1_SCRIPT, str(sort1["chunks_dispatched"] + 2), *stored)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert "running sort2" in killed.stdout
        assert stored_runs(store) > sort1["runs_executed"]  # all of sort1, some of sort2
        assert main(stored) == 0
        rerun = capsys.readouterr().out
        assert main(argv) == 0
        clean = capsys.readouterr().out
        assert table(rerun) == table(clean) and "max two-level speedup" in rerun


class TestBadStoreAtCachePath:
    """A cache path holding no usable store never crashes a run."""

    @staticmethod
    def snapshot(path):
        if path.is_dir():
            return sorted(
                (str(p.relative_to(path)), p.read_bytes() if p.is_file() else None)
                for p in path.rglob("*")
            )
        return path.read_bytes()

    @pytest.mark.parametrize("kind", ["garbage", "shard-directory", "other-version"])
    def test_runs_cold_to_the_cacheless_digest(self, tmp_path, clean_digest, kind):
        path = tmp_path / "store"
        if kind == "garbage":
            path.write_bytes(b"\x00not a database\xff" * 64)
        elif kind == "shard-directory":
            (path / "shards").mkdir(parents=True)
            (path / "shards" / "0a.json").write_text('{"version": 1, "entries": {}}')
            (path / "cache-meta.json").write_text('{"store_version": 1, "shards": {"0a": 0}}')
        else:
            db = sqlite3.connect(str(path))
            db.execute("PRAGMA user_version = 99")
            db.close()
        before = self.snapshot(path)
        config = tiny_config(cache_path=str(path))
        with pytest.warns(UserWarning, match="not a usable store"):
            result = run_experiment("sort1", config=config)
        assert experiment_digest(result) == clean_digest
        assert self.snapshot(path) == before


class TestPoolWorkers:
    def test_process_pool_with_a_store_never_falls_back(self, tmp_path, clean_digest):
        """The store's connection stays in the parent process: a process-pool
        run with a store attached ships nothing that holds it (an unpicklable
        connection in a task would push the pool onto its serial fallback),
        and it matches the serial digest."""
        config = tiny_config(
            executor="process", workers=2, cache_path=str(tmp_path / "store.db")
        )
        result = run_experiment("sort1", config=config)
        assert "executor_fallback" not in result.runtime_stats
        assert experiment_digest(result) == clean_digest

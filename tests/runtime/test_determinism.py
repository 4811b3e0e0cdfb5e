"""Cross-executor determinism of the full experiment pipeline.

The acceptance bar for the measurement runtime: ``run_experiment`` must
produce *identical* per-input times and speedups whichever executor carries
the program runs.  This holds because (a) every run is a pure function of
(program, configuration, input) -- deterministic cost model, per-run seeded
RNGs -- and (b) everything stochastic in the pipeline itself (clustering,
autotuning, splits) draws from explicitly seeded RNGs in the coordinating
process, never in pool workers (the seeded-RNG audit).
"""

import random

import numpy as np
import pytest

from repro.core.baselines import DynamicOracle, OneLevelLearning
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.runtime import RunCache, Runtime

#: Small but complete: full two-level training plus all four methods.
METHODS = ("static_oracle", "dynamic_oracle", "two_level", "one_level")


def tiny_config(executor: str, **overrides) -> ExperimentConfig:
    settings = dict(
        n_inputs=24,
        n_clusters=3,
        tuner_generations=2,
        tuner_population=5,
        tuning_neighbors=2,
        max_subsets=12,
        seed=0,
        executor=executor,
        workers=2,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


@pytest.fixture(scope="module")
def serial_result():
    return run_experiment("sort1", tiny_config("serial"))


class TestCrossExecutorDeterminism:
    @pytest.mark.parametrize("executor", ["process"])
    def test_identical_times_and_speedups(self, serial_result, executor):
        result = run_experiment("sort1", tiny_config(executor))
        assert result.runtime_stats["executor"] == executor
        # A silent fallback would make the process case vacuous.
        assert "executor_fallback" not in result.runtime_stats
        for method in METHODS:
            np.testing.assert_array_equal(
                result.methods[method].times, serial_result.methods[method].times
            )
            np.testing.assert_array_equal(
                result.speedups_over_static(method),
                serial_result.speedups_over_static(method),
            )
            assert result.satisfaction(method) == serial_result.satisfaction(method)

    @pytest.mark.parametrize("executor", ["process"])
    def test_identical_landmarks_and_dataset(self, serial_result, executor):
        result = run_experiment("sort1", tiny_config(executor))
        assert result.training.landmarks == serial_result.training.landmarks
        np.testing.assert_array_equal(
            result.training.dataset.times, serial_result.training.dataset.times
        )
        np.testing.assert_array_equal(
            result.training.level1.cluster_labels,
            serial_result.training.level1.cluster_labels,
        )

    @pytest.mark.parametrize("test_name", ["sort2", "binpacking"])
    def test_run_experiment_bit_identical_to_serial(self, test_name):
        """Another sort input distribution, and a variable-accuracy test, end
        to end through the process pool."""
        serial = run_experiment(test_name, tiny_config("serial"))
        process = run_experiment(test_name, tiny_config("process"))
        assert "executor_fallback" not in process.runtime_stats
        assert (
            serial.training.production_classifier.name
            == process.training.production_classifier.name
        )
        np.testing.assert_array_equal(
            serial.training.dataset.times, process.training.dataset.times
        )
        np.testing.assert_array_equal(
            serial.training.dataset.accuracies, process.training.dataset.accuracies
        )
        for name, outcome in serial.methods.items():
            np.testing.assert_array_equal(outcome.times, process.methods[name].times)

    def test_serial_rerun_is_bit_identical(self, serial_result):
        """Seeded-RNG audit: nothing in the pipeline draws unseeded entropy."""
        result = run_experiment("sort1", tiny_config("serial"))
        for method in METHODS:
            np.testing.assert_array_equal(
                result.methods[method].times, serial_result.methods[method].times
            )

    def test_cache_does_not_change_results(self, serial_result):
        result = run_experiment("sort1", tiny_config("serial", use_cache=False))
        for method in METHODS:
            np.testing.assert_array_equal(
                result.methods[method].times, serial_result.methods[method].times
            )


class TestExecutedRunCounts:
    def test_serial_and_process_execute_the_same_clustering_runs(self):
        """Same keys on every executor: a serial run computes the lazily
        cached canonical distance on the parent's own input object, a pool
        run on a copy, and neither may change that input's run key."""
        executed = {}
        for executor in ("serial", "process"):
            result = run_experiment(
                "clustering1", tiny_config(executor, n_inputs=12, n_clusters=2)
            )
            assert "executor_fallback" not in result.runtime_stats
            executed[executor] = result.runtime_stats["telemetry"]["counters"][
                "runs_executed"
            ]
        assert executed["serial"] == executed["process"]


class TestSharedRuntime:
    def test_second_experiment_reuses_measurements(self):
        runtime = Runtime(cache=RunCache())
        config = tiny_config("serial")
        run_experiment("sort1", config, runtime=runtime)
        executed_before = runtime.telemetry.runs_executed
        run_experiment("sort1", config, runtime=runtime)
        # The repeat run is answered entirely from the shared cache.
        assert runtime.telemetry.runs_executed == executed_before
        runtime.close()


class TestLiveOraclesAgreeWithMatrix:
    """Re-measuring the held-out rows on a fresh caching runtime reproduces
    the Level-1 matrix the baselines read, so reading it costs no fidelity."""

    def test_dynamic_oracle_live_equals_matrix(self, serial_result):
        training = serial_result.training
        dataset = training.dataset
        rows = training.level2.test_rows
        runtime = Runtime(cache=RunCache())
        measured = runtime.measure(
            training.deployed.program,
            dataset.landmarks,
            [dataset.inputs[int(i)] for i in rows],
        )
        assert runtime.telemetry.runs_executed > 0
        np.testing.assert_array_equal(measured["times"], dataset.times[rows])
        np.testing.assert_array_equal(measured["accuracies"], dataset.accuracies[rows])
        matrix = DynamicOracle().evaluate(dataset, rows)
        np.testing.assert_array_equal(
            measured["times"][np.arange(rows.size), matrix.labels], matrix.times
        )

    def test_one_level_live_equals_matrix(self, serial_result):
        training = serial_result.training
        dataset = training.dataset
        rows = training.level2.test_rows
        matrix = OneLevelLearning(training.level1).evaluate(dataset, rows)
        runtime = Runtime(cache=RunCache())
        results = runtime.run_pairs(
            training.deployed.program,
            [
                (dataset.landmarks[int(label)], dataset.inputs[int(row)])
                for label, row in zip(matrix.labels, rows)
            ],
        )
        assert runtime.telemetry.runs_executed > 0
        np.testing.assert_array_equal(
            [result.time for result in results], matrix.times_no_extraction
        )
        np.testing.assert_array_equal(
            [result.accuracy for result in results], matrix.accuracies
        )


class TestDeploymentDeterminism:
    def test_deployed_run_identical_across_executors(self, serial_result):
        deployed = serial_result.training.deployed
        rng = random.Random(5)
        probe = [float(rng.randint(0, 100)) for _ in range(40)]
        probe_input = np.array(probe)
        baseline = deployed.run(probe_input)
        runtime = Runtime.create(executor="process", workers=2)
        deployed.runtime = runtime
        try:
            outcome = deployed.run(probe_input)
            assert outcome.result.time == baseline.result.time
            assert outcome.total_time == baseline.total_time
            np.testing.assert_array_equal(outcome.result.output, baseline.result.output)
        finally:
            deployed.runtime = None
            runtime.close()

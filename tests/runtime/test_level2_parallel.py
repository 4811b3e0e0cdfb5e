"""Cross-executor determinism of the parallel Level-2 candidate search.

The acceptance bar for the generalized task runtime: ``run_level2`` must
select the *identical* production classifier with *identical* scores
whichever executor carries the fit-and-score tasks.  This holds because
candidates are enumerated, reassembled, and compared in enumeration order
-- a deterministic key independent of completion order -- and every task is
a pure function of its arguments.
"""

import numpy as np
import pytest

from repro.autotuner.evolution import EvolutionaryAutotuner
from repro.benchmarks_suite import get_benchmark
from repro.core.level2 import Level2Config, run_level2
from repro.core.synthetic import synthetic_level2_dataset
from repro.runtime import Runtime


@pytest.fixture(scope="module")
def dataset():
    return synthetic_level2_dataset(n=96, variable_accuracy=True)


@pytest.fixture(scope="module")
def serial_result(dataset):
    return run_level2(
        dataset, range(48), range(48, 96), config=Level2Config(max_subsets=12)
    )


class TestCrossExecutorLevel2:
    @pytest.mark.parametrize("executor", ["process"])
    def test_identical_selection_and_scores(self, dataset, serial_result, executor):
        runtime = Runtime.create(executor=executor, workers=2)
        try:
            result = run_level2(
                dataset,
                range(48),
                range(48, 96),
                config=Level2Config(max_subsets=12),
                runtime=runtime,
            )
            assert "executor_fallback" not in runtime.stats()
        finally:
            runtime.close()
        assert (
            result.production.classifier.name
            == serial_result.production.classifier.name
        )
        assert result.production.performance_cost == serial_result.production.performance_cost
        assert [c.name for c in result.classifiers] == [
            c.name for c in serial_result.classifiers
        ]
        assert [e.performance_cost for e in result.evaluations] == [
            e.performance_cost for e in serial_result.evaluations
        ]
        assert [e.satisfaction_rate for e in result.evaluations] == [
            e.satisfaction_rate for e in serial_result.evaluations
        ]
        np.testing.assert_array_equal(result.labels, serial_result.labels)
        np.testing.assert_array_equal(result.cost_matrix, serial_result.cost_matrix)

    def test_serial_rerun_is_identical(self, dataset, serial_result):
        result = run_level2(
            dataset, range(48), range(48, 96), config=Level2Config(max_subsets=12)
        )
        assert result.production.classifier.name == serial_result.production.classifier.name
        assert [e.performance_cost for e in result.evaluations] == [
            e.performance_cost for e in serial_result.evaluations
        ]


class TestRepeatedSearch:
    def test_second_search_refits_every_candidate_and_agrees(self, dataset, serial_result):
        """A runtime keeps no task results: a second identical search on it
        fits every candidate again and selects what the first did."""
        runtime = Runtime.create(executor="serial")
        config = Level2Config(max_subsets=12)
        try:
            first = run_level2(dataset, range(48), range(48, 96), config=config, runtime=runtime)
            executed_after_first = runtime.telemetry.tasks_executed
            second = run_level2(dataset, range(48), range(48, 96), config=config, runtime=runtime)
        finally:
            runtime.close()
        assert executed_after_first == len(serial_result.classifiers)
        assert runtime.telemetry.tasks_executed == 2 * executed_after_first
        assert runtime.telemetry.tasks_requested == runtime.telemetry.tasks_executed
        for result in (first, second):
            assert result.production.classifier.name == serial_result.production.classifier.name
            assert [e.performance_cost for e in result.evaluations] == [
                e.performance_cost for e in serial_result.evaluations
            ]


class TestAutotunerBatchedObjective:
    def _tune(self, runtime):
        variant = get_benchmark("sort1")
        program = variant.benchmark.program
        inputs = variant.benchmark.generate_inputs(4, variant.variant, seed=3)
        tuner = EvolutionaryAutotuner(
            population_size=4,
            offspring_per_generation=4,
            max_generations=3,
            seed=11,
            runtime=runtime,
        )
        return tuner.tune(program, inputs[:2])

    @pytest.mark.parametrize("executor", ["process"])
    def test_tuning_identical_across_executors(self, executor):
        baseline = self._tune(None)
        runtime = Runtime.create(executor=executor, workers=2)
        try:
            result = self._tune(runtime)
        finally:
            runtime.close()
        assert result.best_config == baseline.best_config
        assert result.best.mean_time == baseline.best.mean_time
        assert result.history == baseline.history
        assert result.evaluations == baseline.evaluations

    def test_warm_runtime_skips_reexecution(self):
        runtime = Runtime.create(executor="serial")
        first = self._tune(runtime)
        executed = runtime.telemetry.runs_executed
        second = self._tune(runtime)
        assert second.best_config == first.best_config
        # Same seed, same program: every (configuration, input) run recurs
        # and is answered by the content-keyed run cache.
        assert runtime.telemetry.runs_executed == executed
        runtime.close()

    def test_objective_runs_stay_in_run_cache(self):
        """Tuning measurements go through the persistable run cache,
        preserving warm-start across processes."""
        runtime = Runtime.create(executor="serial")
        self._tune(runtime)
        assert runtime.telemetry.runs_executed > 0
        assert runtime.stats()["cache"]["entries"] == runtime.telemetry.runs_executed
        runtime.close()

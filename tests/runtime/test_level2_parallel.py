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
from repro.core.selection import cross_validate_classifier
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


class TestSelectionTaskLayer:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_cross_validation_deterministic_across_executors(self, dataset, executor):
        from repro.core.classifiers import MaxAprioriClassifier

        labels = dataset.labels()
        runtime = Runtime.create(executor=executor, workers=2)
        try:
            folds = cross_validate_classifier(
                MaxAprioriClassifier, dataset, labels, range(48), n_splits=4, runtime=runtime
            )
        finally:
            runtime.close()
        assert len(folds) == 4
        costs = [fold.performance_cost for fold in folds]
        serial_folds = cross_validate_classifier(
            MaxAprioriClassifier, dataset, labels, range(48), n_splits=4
        )
        assert costs == [fold.performance_cost for fold in serial_folds]

    def test_each_call_executes_one_task_per_fold(self, dataset):
        from repro.core.classifiers import MaxAprioriClassifier

        labels = dataset.labels()
        runtime = Runtime.create(executor="serial")
        try:
            first = cross_validate_classifier(
                MaxAprioriClassifier, dataset, labels, range(48), n_splits=4, runtime=runtime
            )
            assert runtime.telemetry.tasks_executed == 4
            second = cross_validate_classifier(
                MaxAprioriClassifier, dataset, labels, range(48), n_splits=4, runtime=runtime
            )
        finally:
            runtime.close()
        assert runtime.telemetry.tasks_executed == 8
        assert [f.performance_cost for f in second] == [f.performance_cost for f in first]

    def test_cv_folds_config_populates_result(self, dataset):
        result = run_level2(
            dataset,
            range(48),
            range(48, 96),
            config=Level2Config(max_subsets=8, cv_folds=3),
        )
        assert result.production_cv_costs is not None
        assert len(result.production_cv_costs) == 3
        assert all(np.isfinite(cost) for cost in result.production_cv_costs)

    def test_cv_folds_parallelize_under_process_executor(self, dataset):
        """The production-CV factory is picklable, so cv_folds combined with
        the process executor must not trigger the serial fallback."""
        runtime = Runtime.create(executor="process", workers=2)
        try:
            result = run_level2(
                dataset,
                range(48),
                range(48, 96),
                config=Level2Config(max_subsets=8, cv_folds=2),
                runtime=runtime,
            )
            assert "executor_fallback" not in runtime.stats()
        finally:
            runtime.close()
        assert result.production_cv_costs is not None

    def test_invalid_cv_folds_rejected_before_search(self, dataset):
        runtime = Runtime.create(executor="serial")
        with pytest.raises(ValueError, match="cv_folds"):
            run_level2(
                dataset,
                range(48),
                range(48, 96),
                config=Level2Config(max_subsets=8, cv_folds=1),
                runtime=runtime,
            )
        # The rejection happened before any candidate was trained.
        assert runtime.telemetry.tasks_requested == 0
        with pytest.raises(ValueError, match="training rows"):
            run_level2(dataset, [0], range(48, 96), config=Level2Config(cv_folds=2))


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

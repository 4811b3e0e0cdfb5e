"""Cross-executor determinism of the parallel Level-2 candidate search.

The acceptance bar for the generalized task runtime: ``run_level2`` must
select the *identical* production classifier with *identical* scores
whichever executor carries the fit-and-score tasks.  This holds because
candidates are enumerated, reassembled, and compared in enumeration order
-- a deterministic key independent of completion order -- and every task is
a pure function of its arguments.  A recorded sort1 search pins the
selected classifier, and on hosts with the cores for it, the 4-worker
pool must also run the search at least twice as fast as serial.
"""

import os
import time

import numpy as np
import pytest

from repro.autotuner.evolution import EvolutionaryAutotuner
from repro.benchmarks_suite import get_benchmark
from repro.core.level1 import Level1Config, run_level1
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


@pytest.fixture(scope="module")
def sort1_search():
    """The serial Level-2 search on a 160-input sort1 dataset, sized so the
    search dominates, with its wall time."""
    variant = get_benchmark("sort1")
    inputs = variant.benchmark.generate_inputs(160, variant.variant, seed=0)
    level1 = run_level1(
        variant.benchmark.program,
        inputs,
        config=Level1Config(
            n_clusters=6,
            tuner_generations=3,
            tuner_population=6,
            tuning_neighbors=2,
            seed=0,
        ),
    )
    search = {
        "dataset": level1.dataset,
        "train_rows": range(80),
        "test_rows": range(80, 160),
        "config": Level2Config(max_subsets=64, seed=0),
    }
    start = time.perf_counter()
    search["result"] = run_level2(
        search["dataset"],
        search["train_rows"],
        search["test_rows"],
        config=search["config"],
    )
    search["seconds"] = time.perf_counter() - start
    return search


class TestSort1SearchRecord:
    WORKERS = 4

    def test_serial_search_picks_the_recorded_classifier(self, sort1_search):
        result = sort1_search["result"]
        assert result.production.classifier.name == "dtree[sortedness@0,size@0]"
        assert result.production.performance_cost == 5867.0625
        assert len(result.classifiers) == 69

    def test_four_workers_pick_the_same_classifier_at_least_2x_faster(
        self, sort1_search
    ):
        """Parallelism must never change the answer.  Where the host has
        the cores for it, the pool's candidate search must also take at
        most half the serial search's wall time."""
        serial = sort1_search["result"]
        runtime = Runtime.create(
            executor="process", workers=self.WORKERS, use_cache=False
        )
        try:
            pooled = run_level2(
                sort1_search["dataset"],
                sort1_search["train_rows"],
                sort1_search["test_rows"],
                config=sort1_search["config"],
                runtime=runtime,
            )
            pooled_seconds = runtime.telemetry.phases["level2.candidates"].seconds
            fallback = runtime.stats().get("executor_fallback")
        finally:
            runtime.close()
        assert fallback is None
        assert pooled.production.classifier.name == serial.production.classifier.name
        assert pooled.production.performance_cost == serial.production.performance_cost
        if (os.cpu_count() or 1) >= self.WORKERS:
            speedup = sort1_search["seconds"] / max(pooled_seconds, 1e-9)
            assert speedup >= 2.0, (
                f"level2.train speedup at {self.WORKERS} workers regressed to "
                f"{speedup:.2f}x"
            )

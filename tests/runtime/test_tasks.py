"""Unit tests for the generalized task layer (TaskSpec/TaskCache/run_tasks)."""

import numpy as np
import pytest

from repro.runtime import Runtime, TaskCache, TaskSpec, content_key, get_executor
from repro.runtime.tasks import is_missing


def double(x):
    return 2 * x


def combine(x, y=0):
    return x + y


def make_array(n):
    return np.arange(n)


def boom():
    raise RuntimeError("task failed")


class TestTaskSpec:
    def test_call_applies_args_and_kwargs(self):
        assert TaskSpec(fn=combine, args=(3,), kwargs={"y": 4}).call() == 7

    def test_defaults(self):
        spec = TaskSpec(fn=double, args=(1,))
        assert spec.key is None
        assert spec.label == ""


class TestTaskCache:
    def test_round_trip_and_stats(self):
        cache = TaskCache()
        assert is_missing(cache.get("a"))
        cache.put("a", 123)
        assert cache.get("a") == 123
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1, "evictions": 0}

    def test_none_is_a_legitimate_value(self):
        cache = TaskCache()
        cache.put("a", None)
        value = cache.get("a")
        assert value is None
        assert not is_missing(value)

    def test_lru_eviction(self):
        cache = TaskCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            TaskCache(max_entries=0)


class TestRunTasks:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_results_in_submission_order(self, executor):
        runtime = Runtime.create(executor=executor, workers=2, use_cache=False)
        specs = [TaskSpec(fn=double, args=(i,)) for i in range(10)]
        assert runtime.run_tasks(specs) == [2 * i for i in range(10)]
        runtime.close()

    def test_keyed_tasks_deduplicate_within_batch(self):
        runtime = Runtime.create(executor="serial")
        specs = [TaskSpec(fn=double, args=(7,), key="k") for _ in range(5)]
        assert runtime.run_tasks(specs) == [14] * 5
        assert runtime.telemetry.tasks_executed == 1
        assert runtime.telemetry.task_cache_hits == 4

    def test_keyed_tasks_hit_cache_across_batches(self):
        runtime = Runtime.create(executor="serial")
        spec = TaskSpec(fn=double, args=(7,), key="k")
        runtime.run_tasks([spec])
        runtime.run_tasks([spec])
        assert runtime.telemetry.tasks_requested == 2
        assert runtime.telemetry.tasks_executed == 1
        assert runtime.stats()["task_cache"]["entries"] == 1

    def test_unkeyed_tasks_always_execute(self):
        runtime = Runtime.create(executor="serial")
        spec = TaskSpec(fn=double, args=(7,))
        runtime.run_tasks([spec])
        runtime.run_tasks([spec])
        assert runtime.telemetry.tasks_executed == 2

    def test_cache_disabled_runtime_has_no_task_cache(self):
        runtime = Runtime.create(executor="serial", use_cache=False)
        assert runtime.task_cache is None
        spec = TaskSpec(fn=double, args=(7,), key="k")
        runtime.run_tasks([spec])
        runtime.run_tasks([spec])
        assert runtime.telemetry.tasks_executed == 2

    def test_phase_is_timed(self):
        runtime = Runtime.create(executor="serial")
        runtime.run_tasks([TaskSpec(fn=double, args=(1,))], phase="unit.phase")
        assert runtime.telemetry.phases["unit.phase"].calls == 1

    def test_numpy_results_survive_process_round_trip(self):
        runtime = Runtime.create(executor="process", workers=2, use_cache=False)
        results = runtime.run_tasks([TaskSpec(fn=make_array, args=(4,))] * 3)
        for result in results:
            np.testing.assert_array_equal(result, np.arange(4))
        runtime.close()

    def test_process_falls_back_serially_on_unpicklable_task(self):
        runtime = Runtime.create(executor="process", workers=2, use_cache=False)
        closure = lambda: 41 + 1  # noqa: E731 - deliberately unpicklable
        assert runtime.run_tasks([TaskSpec(fn=closure), TaskSpec(fn=closure)]) == [42, 42]
        stats = runtime.stats()
        assert "not picklable" in stats["executor_fallback"]
        # The probe failed before any submission, so no retry was counted.
        assert set(stats) == {"executor", "telemetry", "executor_fallback"}
        runtime.close()


class TestExecutorRunCalls:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_empty_batch(self, executor):
        ex = get_executor(executor, workers=2)
        assert ex.run_calls([]) == []
        ex.close()

    def test_exceptions_propagate(self):
        ex = get_executor("process", workers=2)
        with pytest.raises(RuntimeError, match="task failed"):
            ex.run_calls([(boom, (), {}), (boom, (), {})])
        assert ex.fallback_reason is None
        ex.close()


class TestContentKey:
    def test_stable_across_calls(self):
        assert content_key("a", 1, np.arange(3)) == content_key("a", 1, np.arange(3))

    def test_distinguishes_values(self):
        assert content_key("a", 1) != content_key("a", 2)
        assert content_key(np.arange(3)) != content_key(np.arange(4))

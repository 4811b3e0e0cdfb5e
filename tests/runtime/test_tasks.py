"""Unit tests for the generalized task layer (``Runtime.run_tasks``).

A task is the executor's ``(fn, args, kwargs)`` call tuple; the runtime
hands a whole batch to ``executor.run_calls`` once.
"""

import numpy as np
import pytest

from repro.resilience.faults import FaultPlan, FaultSpec, fault_scope
from repro.runtime import Runtime, SerialExecutor, SharedRef, get_executor


def double(x):
    return 2 * x


def combine(x, y=0):
    return x + y


def make_array(n):
    return np.arange(n)


def boom():
    raise RuntimeError("task failed")


def scaled_total(values, factor):
    return float(sum(values)) * factor


class RecordingExecutor(SerialExecutor):
    """A serial executor that records the size of every batch it is given."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def run_calls(self, calls, shared=None):
        self.batches.append(len(calls))
        return super().run_calls(calls, shared=shared)


class TestRunTasks:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_results_in_submission_order(self, executor):
        runtime = Runtime.create(executor=executor, workers=2, use_cache=False)
        calls = [(combine, (i,), {"y": 100 * i}) for i in range(10)]
        assert runtime.run_tasks(calls) == [101 * i for i in range(10)]
        runtime.close()

    def test_repeated_calls_all_execute(self):
        """A caching runtime keeps no task results: every call of a batch
        executes, repeats included, and so does a repeated batch."""
        runtime = Runtime.create(executor="serial")
        calls = [(double, (7,), {})] * 5
        assert runtime.run_tasks(calls) == [14] * 5
        assert runtime.run_tasks(calls) == [14] * 5
        assert runtime.telemetry.tasks_requested == 10
        assert runtime.telemetry.tasks_executed == 10

    def test_whole_batch_goes_to_the_executor_once(self):
        """A batch longer than ``batch_chunk`` is not cut into chunks."""
        executor = RecordingExecutor()
        runtime = Runtime(executor=executor, batch_chunk=2)
        assert runtime.run_tasks([(double, (i,), {}) for i in range(7)]) == [
            2 * i for i in range(7)
        ]
        assert executor.batches == [7]
        assert "chunks_dispatched" not in runtime.telemetry.counters

    def test_task_batch_meets_no_chunk_boundary(self, tmp_path, monkeypatch):
        """Only measurement chunks save the store and reach the
        ``runtime.chunk`` fault site; a task batch does neither."""
        runtime = Runtime.create(cache_path=str(tmp_path / "runs.db"), batch_chunk=2)
        saves = []
        monkeypatch.setattr(runtime.cache, "save", lambda: saves.append(1))
        plan = FaultPlan([FaultSpec(site="runtime.chunk", action="raise", nth=1)])
        try:
            with fault_scope(plan) as injector:
                results = runtime.run_tasks([(double, (i,), {}) for i in range(7)])
        finally:
            runtime.close()
        assert results == [2 * i for i in range(7)]
        assert saves == []
        assert "runtime.chunk" not in injector.snapshot()["calls"]

    def test_failing_batch_raises_and_counts_no_executions(self):
        runtime = Runtime.create(executor="serial")
        with pytest.raises(RuntimeError, match="task failed"):
            runtime.run_tasks([(double, (1,), {}), (boom, (), {})], phase="unit.fail")
        assert runtime.telemetry.tasks_requested == 2
        assert runtime.telemetry.tasks_executed == 0
        # The failed batch's time still lands in its phase.
        assert runtime.telemetry.phases["unit.fail"].calls == 1

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_shared_objects_resolve_in_every_task(self, executor):
        runtime = Runtime.create(executor=executor, workers=2, use_cache=False)
        calls = [(scaled_total, (SharedRef("values"), float(f)), {}) for f in (1, 2, 3)]
        try:
            results = runtime.run_tasks(calls, shared={"values": list(range(10))})
            assert "executor_fallback" not in runtime.stats()
        finally:
            runtime.close()
        assert results == [45.0, 90.0, 135.0]

    def test_phase_is_timed(self):
        runtime = Runtime.create(executor="serial")
        runtime.run_tasks([(double, (1,), {})], phase="unit.phase")
        assert runtime.telemetry.phases["unit.phase"].calls == 1

    def test_numpy_results_survive_process_round_trip(self):
        runtime = Runtime.create(executor="process", workers=2, use_cache=False)
        results = runtime.run_tasks([(make_array, (4,), {})] * 3)
        for result in results:
            np.testing.assert_array_equal(result, np.arange(4))
        runtime.close()

    def test_process_falls_back_serially_on_unpicklable_task(self):
        runtime = Runtime.create(executor="process", workers=2, use_cache=False)
        closure = lambda: 41 + 1  # noqa: E731 - deliberately unpicklable
        assert runtime.run_tasks([(closure, (), {}), (closure, (), {})]) == [42, 42]
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

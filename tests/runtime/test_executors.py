"""Tests for the serial / thread-pool / process-pool executors."""

import os
import signal
import time

import numpy as np
import pytest

from repro.benchmarks_suite import get_benchmark
from repro.lang.config import ConfigurationSpace, IntegerParameter
from repro.lang.cost import charge
from repro.lang.program import PetaBricksProgram
from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    SharedRef,
    ThreadExecutor,
    get_executor,
)
from repro.runtime.executors import _call_chunksize


@pytest.fixture(scope="module")
def sort_setup():
    variant = get_benchmark("sort2")
    program = variant.benchmark.program
    inputs = variant.benchmark.generate_inputs(6, variant.variant, seed=0)
    configs = [program.default_configuration()]
    import random

    configs.append(program.config_space.sample(random.Random(7)))
    tasks = [(config, program_input) for config in configs for program_input in inputs]
    return program, tasks


def reference_results(program, tasks):
    return SerialExecutor().run_batch(program, tasks)


class TestSerialExecutor:
    def test_matches_direct_runs(self, sort_setup):
        program, tasks = sort_setup
        results = SerialExecutor().run_batch(program, tasks)
        for (config, program_input), result in zip(tasks, results):
            direct = program.run(config, program_input)
            assert result.time == direct.time
            assert result.accuracy == direct.accuracy

    def test_empty_batch(self, sort_setup):
        program, _ = sort_setup
        assert SerialExecutor().run_batch(program, []) == []


@pytest.mark.parametrize("name", ["serial", "thread", "process"])
def test_empty_batches_start_no_pool(sort_setup, name):
    program, _ = sort_setup
    with get_executor(name, workers=2) as executor:
        assert executor.run_batch(program, []) == []
        assert executor.run_calls([]) == []
        assert getattr(executor, "_pool", None) is None


class TestThreadExecutor:
    def test_matches_serial(self, sort_setup):
        program, tasks = sort_setup
        expected = reference_results(program, tasks)
        with ThreadExecutor(workers=4) as executor:
            results = executor.run_batch(program, tasks)
        assert [r.time for r in results] == [r.time for r in expected]
        assert [r.accuracy for r in results] == [r.accuracy for r in expected]

    def test_cost_accounting_isolated_per_run(self, sort_setup):
        """Concurrent runs must not leak charges into each other's counters."""
        space = ConfigurationSpace([IntegerParameter("units", 1, 1000)])

        def run(config, _input):
            charge(float(config["units"]))
            return config["units"]

        program = PetaBricksProgram("charger", space, run)
        tasks = [
            (program.default_configuration().with_updates(units=units), None)
            for units in range(1, 201)
        ]
        with ThreadExecutor(workers=8) as executor:
            results = executor.run_batch(program, tasks)
        assert [r.time for r in results] == [float(u) for u in range(1, 201)]

    def test_single_task_runs_inline(self, sort_setup):
        program, tasks = sort_setup
        executor = ThreadExecutor(workers=2)
        results = executor.run_batch(program, tasks[:1])
        assert len(results) == 1
        assert executor._pool is None  # no pool spun up for one task
        executor.close()


class TestProcessExecutor:
    def test_matches_serial(self, sort_setup):
        program, tasks = sort_setup
        expected = reference_results(program, tasks)
        with ProcessExecutor(workers=2) as executor:
            results = executor.run_batch(program, tasks)
            assert executor.fallback_reason is None
        assert [r.time for r in results] == [r.time for r in expected]
        assert [r.accuracy for r in results] == [r.accuracy for r in expected]

    def test_falls_back_to_serial_on_unpicklable_program(self):
        space = ConfigurationSpace([IntegerParameter("x", 1, 5)])
        # A lambda run function cannot be pickled into worker processes.
        program = PetaBricksProgram(
            "local", space, lambda config, _input: charge(float(config["x"]))
        )
        tasks = [(program.default_configuration(), None)] * 3
        with ProcessExecutor(workers=2) as executor:
            results = executor.run_batch(program, tasks)
            assert executor.fallback_reason is not None
            assert "not picklable" in executor.fallback_reason
        assert [r.time for r in results] == [3.0, 3.0, 3.0]

    def test_pool_reused_across_batches(self, sort_setup):
        program, tasks = sort_setup
        with ProcessExecutor(workers=2) as executor:
            executor.run_batch(program, tasks[:3])
            pool = executor._pool
            executor.run_batch(program, tasks[3:6])
            assert executor._pool is pool


def _scaled_sum(values, factor):
    """Module-level so process pools can pickle it."""
    return float(sum(values)) * factor


def _reject_negative(_config, value):
    """Module-level program run: a task's own TypeError on negative input."""
    if value < 0:
        raise TypeError("negative input")
    charge(float(value))
    return value


class TestTaskErrorsPropagate:
    """A task's own TypeError is the caller's error, not a pickling failure:
    it propagates from the pool as raised, and nothing re-runs serially."""

    def test_run_batch(self):
        space = ConfigurationSpace([IntegerParameter("x", 1, 5)])
        program = PetaBricksProgram("strict", space, _reject_negative)
        config = program.default_configuration()
        tasks = [(config, value) for value in (1.0, -1.0, 2.0)]
        with ProcessExecutor(workers=2) as executor:
            with pytest.raises(TypeError, match="negative input"):
                executor.run_batch(program, tasks)
            assert executor.fallback_reason is None

    def test_run_calls(self):
        calls = [(_reject_negative, (None, value), {}) for value in (1.0, -1.0, 2.0)]
        with ProcessExecutor(workers=2) as executor:
            with pytest.raises(TypeError, match="negative input"):
                executor.run_calls(calls)
            assert executor.fallback_reason is None


def _kill_pid(pid):
    """SIGKILL a process (module-level so pools can ship it)."""
    os.kill(pid, signal.SIGKILL)


def _kill_worker_once(marker, value):
    """SIGKILL the executing worker the first time; marker-guarded.

    The marker is created *before* the kill, so the resubmitted call sees
    it and returns normally.
    """
    if not os.path.exists(marker):
        open(marker, "w").close()
        _kill_pid(os.getpid())
    return value * 2


def _kill_any_worker(parent_pid, value):
    """SIGKILL whichever pool worker runs this; only the parent returns."""
    if os.getpid() != parent_pid:
        _kill_pid(os.getpid())
    return value * 2


class TestProcessPoolRecovery:
    """Satellite fix: a broken pool is torn down and rebuilt, not kept.

    A worker that dies while the pool is idle leaves the
    ``ProcessPoolExecutor`` permanently broken; the next submission raises
    ``BrokenProcessPool``.  Before the fix that exception escaped (or the
    dead pool object was reused forever); now the executor rebuilds the
    pool -- re-registering the program / shared-argument initializers --
    and the batch succeeds.
    """

    def _kill_one_worker(self, executor):
        pool = executor._pool
        assert pool is not None
        victim = next(iter(pool._processes.values()))
        _kill_pid(victim.pid)
        victim.join(timeout=10)
        # The pool's manager thread reaps the dead worker too.  When its
        # waitpid wins, the join above returns before the manager has
        # recorded the exit code, and is_alive() still reads True; polling
        # with sleeps lets the manager finish.
        deadline = time.monotonic() + 10
        while victim.is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not victim.is_alive()

    def test_run_batch_survives_worker_killed_between_batches(self, sort_setup):
        program, tasks = sort_setup
        expected = reference_results(program, tasks)
        with ProcessExecutor(workers=2) as executor:
            executor.run_batch(program, tasks[:3])
            broken_pool = executor._pool
            self._kill_one_worker(executor)
            results = executor.run_batch(program, tasks)
            assert [r.time for r in results] == [r.time for r in expected]
            assert [r.accuracy for r in results] == [r.accuracy for r in expected]
            # The dead pool must not be the one serving later batches.
            assert executor._pool is not broken_pool
            follow_up = executor.run_batch(program, tasks[:3])
            assert [r.time for r in follow_up] == [r.time for r in expected[:3]]
            # The break and its retry surface through Runtime.stats().
            stats = executor.stats()
            assert set(stats) == {"executor_fallback", "retries"}
            assert stats["executor_fallback"].startswith("process pool broke")
            assert stats["retries"]["retry_retries"] == 1

    def test_run_calls_rebuild_reregisters_shared_initializer(self):
        shared = {"payload": list(range(50))}
        calls = [
            (_scaled_sum, (SharedRef("payload"), float(f)), {}) for f in range(1, 4)
        ]
        expected = [float(sum(range(50))) * f for f in range(1, 4)]
        with ProcessExecutor(workers=2) as executor:
            assert executor.run_calls(calls, shared=shared) == expected
            broken_pool = executor._pool
            self._kill_one_worker(executor)
            # The rebuilt pool's workers must hold the shared registry again
            # (the initializer is re-registered), or refs would not resolve.
            assert executor.run_calls(calls, shared=shared) == expected
            assert executor._pool is not broken_pool


    def test_worker_killed_mid_batch_is_resubmitted(self, tmp_path):
        marker = str(tmp_path / "killed")
        calls = [(_kill_worker_once, (marker, value), {}) for value in range(5)]
        with ProcessExecutor(workers=2) as executor:
            assert executor.run_calls(calls) == [0, 2, 4, 6, 8]
            stats = executor.stats()
            assert stats["executor_fallback"].startswith("process pool broke")
            assert stats["retries"]["retry_retries"] == 1
            assert stats["retries"]["retry_recoveries"] == 1
            # The rebuilt pool serves the next batch.
            assert executor.run_calls(calls[:2]) == [0, 2]
            assert executor._pool is not None

    def test_pool_that_stays_broken_ends_on_serial(self):
        calls = [(_kill_any_worker, (os.getpid(), value), {}) for value in range(3)]
        with ProcessExecutor(workers=2) as executor:
            assert executor.run_calls(calls) == [0, 2, 4]
            assert executor._pool is None  # torn down, not kept broken
            stats = executor.stats()
        assert stats["executor_fallback"].startswith("process pool broke")
        assert stats["retries"]["retry_giveups"] == 1


class TestSharedArgs:
    """SharedRef arguments resolve identically on every executor."""

    PAYLOAD = list(range(100))
    CALLS = [
        (_scaled_sum, (SharedRef("payload"), float(factor)), {})
        for factor in range(1, 6)
    ]
    EXPECTED = [float(sum(range(100))) * f for f in range(1, 6)]

    def test_serial_resolves_refs(self):
        shared = {"payload": self.PAYLOAD}
        assert SerialExecutor().run_calls(self.CALLS, shared=shared) == self.EXPECTED

    def test_thread_resolves_refs(self):
        shared = {"payload": self.PAYLOAD}
        with ThreadExecutor(workers=2) as executor:
            assert executor.run_calls(self.CALLS, shared=shared) == self.EXPECTED

    def test_process_resolves_refs_via_pool_registry(self):
        shared = {"payload": self.PAYLOAD}
        with ProcessExecutor(workers=2) as executor:
            assert executor.run_calls(self.CALLS, shared=shared) == self.EXPECTED
            assert executor.fallback_reason is None

    def test_process_pool_reused_for_same_shared_object(self):
        shared = {"payload": self.PAYLOAD}
        with ProcessExecutor(workers=2) as executor:
            executor.run_calls(self.CALLS, shared=shared)
            pool = executor._pool
            executor.run_calls(self.CALLS, shared=shared)
            assert executor._pool is pool  # same object -> no reinitialization
            # A different object under the same token must NOT reuse the
            # stale registry.
            executor.run_calls(
                [(_scaled_sum, (SharedRef("payload"), 1.0), {})],
                shared={"payload": list(range(10))},
            )
            assert executor._pool is not pool

    def test_kwarg_refs_resolve_too(self):
        def _kw(factor, values=None):
            return float(sum(values)) * factor

        calls = [(_kw, (2.0,), {"values": SharedRef("payload")})]
        assert SerialExecutor().run_calls(calls, shared={"payload": [1, 2, 3]}) == [12.0]

    def test_kwarg_refs_resolve_in_workers(self):
        calls = [(_scaled_kwargs, (2.0,), {"values": SharedRef("payload")})]
        with ProcessExecutor(workers=2) as executor:
            assert executor.run_calls(calls, shared={"payload": [1, 2, 3]}) == [12.0]
            assert executor.fallback_reason is None


def _scaled_kwargs(factor, values=None):
    """Module-level so process pools can pickle it."""
    return float(sum(values)) * factor


class TestCallChunksize:
    """The pool.map chunk-size heuristic (satellite fix).

    Small batches used to degenerate to chunksize 1 -- one pickled message
    per call, re-shipping each chunk's shared content call by call.  Now a
    small batch targets one chunk per worker and a large batch four.
    """

    def test_small_batch_floors_at_one_chunk_per_worker(self):
        # 8 calls on 4 workers: previously chunksize 1 (8 chunks); now 2.
        assert _call_chunksize(8, 4) == 2
        # 20 calls on 8 workers: ceiling the size would give 3 (7 chunks,
        # one worker stranded idle); flooring gives 2 (10 chunks).
        assert _call_chunksize(20, 8) == 2

    def test_large_batch_targets_four_chunks_per_worker(self):
        assert _call_chunksize(1000, 4) == 63  # ceil(1000 / 16)
        assert _call_chunksize(65, 4) == 5  # just past the boundary

    def test_boundary_batch_does_not_degenerate(self):
        # Exactly workers * 4 calls must take the small-batch floor, not
        # fall through to chunksize 1.
        assert _call_chunksize(32, 8) == 4
        assert _call_chunksize(16, 4) == 4

    def test_degenerate_sizes(self):
        assert _call_chunksize(0, 4) == 1
        assert _call_chunksize(1, 4) == 1
        assert _call_chunksize(3, 8) == 1  # fewer calls than workers

    def test_never_exceeds_batch(self):
        for n_calls in range(1, 70):
            for workers in (1, 2, 4, 8):
                size = _call_chunksize(n_calls, workers)
                assert 1 <= size <= n_calls

    def test_no_worker_stranded_before_another_queues_two(self):
        """Satellite fix: chunk count >= min(n_calls, workers) on the grid.

        Fewer chunks than workers means some worker never receives a chunk
        while another queues two -- the stranding bug.  The property must
        hold across the whole (n_calls, workers) grid, large batches
        included.
        """
        for n_calls in range(0, 130):
            for workers in (1, 2, 3, 4, 5, 7, 8, 12, 16):
                size = _call_chunksize(n_calls, workers)
                assert size >= 1
                if n_calls == 0:
                    continue
                n_chunks = -(-n_calls // size)
                assert n_chunks >= min(n_calls, workers), (
                    f"n_calls={n_calls} workers={workers} chunksize={size} "
                    f"-> only {n_chunks} chunk(s)"
                )


class TestGetExecutor:
    def test_names(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread"), ThreadExecutor)
        assert isinstance(get_executor("process"), ProcessExecutor)

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_unstarted_pool_executor_is_inert(self, name):
        executor = get_executor(name, workers=1)
        assert executor.workers == 1
        assert executor.stats() == {}
        executor.close()  # never started: a no-op, and idempotent
        executor.close()

    def test_workers_argument(self):
        assert get_executor("thread", workers=3).workers == 3
        assert get_executor("process", workers=5).workers == 5

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_executor("quantum")
        with pytest.raises(ValueError):
            get_executor("thread:4")  # worker counts go in ``workers``
        with pytest.raises(ValueError):
            get_executor("distributed")

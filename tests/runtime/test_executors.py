"""Tests for the serial and process-pool executors."""

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

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
    get_executor,
)
from repro.runtime import executors
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


@pytest.mark.parametrize("name", ["serial", "process"])
def test_empty_batches_start_no_pool(sort_setup, name):
    program, _ = sort_setup
    with get_executor(name, workers=2) as executor:
        assert executor.run_batch(program, []) == []
        assert executor.run_calls([]) == []
        assert getattr(executor, "_pool", None) is None


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
            # The retry surfaces through Runtime.stats(); the recovered
            # break ran every lease on the pool, so it is no fallback.
            stats = executor.stats()
            assert set(stats) == {"retries"}
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
            assert "executor_fallback" not in stats
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


class _FlakyPool:
    """Stands in for a process pool: the submissions numbered in ``breaks``
    raise ``BrokenProcessPool``, the others map their leases in-process."""

    def __init__(self, breaks):
        self.breaks = set(breaks)
        self.submissions = 0

    def map(self, fn, leases):
        self.submissions += 1
        if self.submissions in self.breaks:
            raise BrokenProcessPool("a worker died")
        return map(fn, leases)


class TestInlineRetry:
    """The pool's one retry, written in ``_lease_map`` with no real pool:
    a break tears the pool down and resubmits the batch once; a second
    break runs it serially.  The counters keep the names perfbench and
    ``Runtime.stats()`` read."""

    CALLS = [(abs, (-value,), {}) for value in range(7)]
    EXPECTED = list(range(7))

    def _executor(self, monkeypatch, breaks=()):
        executor = ProcessExecutor(workers=2)
        pool = _FlakyPool(breaks)
        teardowns = []
        monkeypatch.setattr(executor, "_pool_holding", lambda program, shared: pool)
        # Record which submission each teardown followed.
        monkeypatch.setattr(
            executor, "_shutdown_pool", lambda: teardowns.append(pool.submissions)
        )
        return executor, pool, teardowns

    def test_healthy_batch_is_one_attempt(self, monkeypatch):
        executor, pool, teardowns = self._executor(monkeypatch)
        assert executor.run_calls(self.CALLS) == self.EXPECTED
        assert pool.submissions == 1
        assert teardowns == []
        assert executor.stats() == {"retries": {"retry_attempts": 1}}

    def test_one_break_is_torn_down_and_resubmitted_once(self, monkeypatch):
        executor, pool, teardowns = self._executor(monkeypatch, breaks={1})
        assert executor.run_calls(self.CALLS) == self.EXPECTED
        assert pool.submissions == 2
        assert teardowns == [1]  # the broken pool went before the resubmission
        stats = executor.stats()
        assert stats["retries"] == {
            "retry_attempts": 2,
            "retry_retries": 1,
            "retry_recoveries": 1,
        }
        # Every lease ran on the pool in the end: no serial fallback.
        assert "executor_fallback" not in stats

    def test_second_break_ends_on_serial(self, monkeypatch):
        executor, pool, teardowns = self._executor(monkeypatch, breaks={1, 2})
        assert executor.run_calls(self.CALLS) == self.EXPECTED
        assert pool.submissions == 2  # no third submission
        assert teardowns == [1, 2]  # nor a broken pool kept for later batches
        stats = executor.stats()
        assert stats["executor_fallback"] == "process pool broke: a worker died"
        assert stats["retries"] == {
            "retry_attempts": 2,
            "retry_retries": 1,
            "retry_giveups": 1,
        }

    def test_recovered_break_keeps_an_earlier_fallback(self, monkeypatch):
        """The reason names the latest batch that ended on serial; a later
        batch that recovers from its break neither sets nor clears it."""
        executor, pool, _ = self._executor(monkeypatch, breaks={1, 2, 3})
        assert executor.run_calls(self.CALLS) == self.EXPECTED  # ends on serial
        assert executor.run_calls(self.CALLS) == self.EXPECTED  # recovers
        assert pool.submissions == 4
        stats = executor.stats()
        assert stats["executor_fallback"] == "process pool broke: a worker died"
        assert stats["retries"] == {
            "retry_attempts": 4,
            "retry_retries": 2,
            "retry_recoveries": 1,
            "retry_giveups": 1,
        }

    def test_counters_accumulate_across_batches(self, monkeypatch):
        executor, pool, _ = self._executor(monkeypatch, breaks={1, 4, 5})
        for _ in range(3):
            assert executor.run_calls(self.CALLS) == self.EXPECTED
        assert pool.submissions == 5
        assert executor.stats()["retries"] == {
            "retry_attempts": 5,
            "retry_retries": 2,
            "retry_recoveries": 1,
            "retry_giveups": 1,
        }

    def test_task_error_on_resubmission_propagates(self, monkeypatch):
        """A task's own error after a break is the caller's error: it is
        raised, not read as transport and re-run serially."""
        executor, pool, _ = self._executor(monkeypatch, breaks={1})
        calls = [(_reject_negative, (None, value), {}) for value in (1.0, -1.0)]
        with pytest.raises(TypeError, match="negative input"):
            executor.run_calls(calls)
        assert pool.submissions == 2
        assert "retry_giveups" not in executor.stats()["retries"]

    def test_unpicklable_batch_submits_nothing(self):
        calls = [(lambda value: value + 1, (value,), {}) for value in range(3)]
        with ProcessExecutor(workers=2) as executor:
            assert executor.run_calls(calls) == [1, 2, 3]
            assert executor._pool is None  # the probe decided before any pool
            stats = executor.stats()
        assert stats["executor_fallback"].startswith("batch not picklable")
        assert "retries" not in stats


ORPHAN_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys
    from repro.runtime import ProcessExecutor

    executor = ProcessExecutor(workers=2)
    executor.run_calls([(abs, (-value,), {}) for value in range(8)])
    with open(sys.argv[1], "w") as handle:
        handle.write(" ".join(str(pid) for pid in executor._pool._processes))
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


def _exited(pid):
    """True once ``pid`` has exited; a zombie nobody has reaped yet counts."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (ProcessLookupError, FileNotFoundError):
        return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
class TestOrphanedWorkers:
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        """A SIGKILLed parent cannot shut its pool down; the workers must
        notice on their own instead of idling on, reparented."""
        script, pid_file = tmp_path / "script.py", tmp_path / "pids"
        script.write_text(ORPHAN_SCRIPT)
        env = dict(os.environ)
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # No pipes: an orphan holding one open would block the wait below.
        proc = subprocess.run(
            [sys.executable, str(script), str(pid_file)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        pids = [int(pid) for pid in pid_file.read_text().split()]
        assert len(pids) == 2
        try:
            deadline = time.monotonic() + 10
            while not all(map(_exited, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert [pid for pid in pids if not _exited(pid)] == []
        finally:
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    if not _exited(pid):
                        os.kill(pid, signal.SIGKILL)


class TestOrphanWatchdog:
    """The watchdog thread each pool worker starts, run in this process
    against stand-ins for ``os``, ``time`` and ``threading``."""

    def test_exits_once_the_parent_changes(self, monkeypatch):
        parents, sleeps, exits = iter([100, 100, 1]), [], []
        monkeypatch.setattr(
            executors,
            "os",
            SimpleNamespace(getppid=lambda: next(parents), _exit=exits.append),
        )
        monkeypatch.setattr(executors, "time", SimpleNamespace(sleep=sleeps.append))
        executors._exit_when_orphaned(100)
        assert sleeps == [0.5, 0.5]  # polled until reparented
        assert exits == [1]

    def test_worker_init_starts_a_daemon_watchdog(self, monkeypatch):
        started = []

        class Thread:
            def __init__(self, target, args, daemon):
                self.spec = (target, args, daemon)

            def start(self):
                started.append(self.spec)

        monkeypatch.setattr(executors, "threading", SimpleNamespace(Thread=Thread))
        monkeypatch.setattr(executors, "_WORKER_PROGRAM", None)
        monkeypatch.setattr(executors, "_WORKER_SHARED", {})
        shared = {"payload": [1, 2]}
        executors._process_worker_init(None, shared)
        assert executors._WORKER_SHARED is shared
        assert started == [(executors._exit_when_orphaned, (os.getppid(),), True)]


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
        assert isinstance(get_executor("process"), ProcessExecutor)

    @pytest.mark.parametrize("name", ["process"])
    def test_unstarted_pool_executor_is_inert(self, name):
        executor = get_executor(name, workers=1)
        assert executor.workers == 1
        assert executor.stats() == {}
        executor.close()  # never started: a no-op, and idempotent
        executor.close()

    def test_workers_argument(self):
        assert get_executor("process", workers=5).workers == 5

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_executor("quantum")
        with pytest.raises(ValueError):
            get_executor("process:4")  # worker counts go in ``workers``
        with pytest.raises(ValueError):
            get_executor("distributed")
        with pytest.raises(ValueError):
            get_executor("thread")

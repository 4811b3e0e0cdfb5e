"""Tests for the distributed executor: leases, determinism, fault recovery.

The worker-death tests SIGKILL real worker processes; every suicide task is
guarded by a marker file created *before* the kill, so its reassigned (or
serial-fallback) re-execution returns normally instead of killing the test
process.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.benchmarks_suite import get_benchmark
from repro.core.inputs import ObservedInputSource
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.lang.config import ConfigurationSpace, IntegerParameter
from repro.lang.cost import charge
from repro.lang.program import PetaBricksProgram
from repro.runtime import (
    DistributedExecutor,
    Runtime,
    SerialExecutor,
    SharedRef,
    get_executor,
)
from repro.runtime.distributed import (
    PROTOCOL_VERSION,
    LeaseError,
    decode_payload,
    encode_payload,
    recv_messages,
)

# Everything here touches real sockets; worker connect races retry inside
# repro.worker.CONNECT_POLICY (see repro.resilience.retry).


# -- module-level task functions (workers import this module to unpickle) --


def _scaled_sum(values, factor):
    return float(sum(values)) * factor


def _double(value):
    return value * 2


def _kill_self_once(marker, value):
    """SIGKILL the executing worker the first time; marker-guarded.

    The marker is created *before* the kill, so the reassigned attempt (or
    a serial re-run in the parent -- which this must never take down) sees
    it and returns normally.
    """
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _slow_once(marker, value, seconds=3.0):
    """Stall well past the lease deadline the first time; marker-guarded."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(seconds)
    return value * 2


# -- framing ------------------------------------------------------------


class TestFraming:
    def test_payload_round_trip(self):
        payload = {"a": [1, 2.5, "x"], "b": np.arange(4)}
        decoded = decode_payload(encode_payload(payload))
        assert decoded["a"] == payload["a"]
        np.testing.assert_array_equal(decoded["b"], payload["b"])

    def test_recv_messages_handles_partial_lines(self):
        buffer = bytearray()
        assert recv_messages(buffer, b'{"type": "he') == []
        assert recv_messages(buffer, b'llo"}\n{"type"') == [{"type": "hello"}]
        assert recv_messages(buffer, b': "result"}\n') == [{"type": "result"}]
        assert bytes(buffer) == b""

    def test_recv_messages_multiple_per_read(self):
        buffer = bytearray()
        messages = recv_messages(buffer, b'{"a": 1}\n{"b": 2}\n\n{"c": 3}\n')
        assert messages == [{"a": 1}, {"b": 2}, {"c": 3}]

    def test_protocol_version_is_stable(self):
        assert PROTOCOL_VERSION == 1


# -- executor contract --------------------------------------------------


@pytest.fixture(scope="module")
def sort_setup():
    variant = get_benchmark("sort2")
    program = variant.benchmark.program
    inputs = variant.benchmark.generate_inputs(6, variant.variant, seed=0)
    import random

    configs = [
        program.default_configuration(),
        program.config_space.sample(random.Random(7)),
    ]
    tasks = [(config, program_input) for config in configs for program_input in inputs]
    return program, configs, tasks


@pytest.fixture(scope="module")
def executor():
    """One two-worker executor shared by the contract tests (spawn is slow)."""
    with DistributedExecutor(workers=2) as ex:
        yield ex


class TestDistributedExecutor:
    def test_run_batch_matches_serial(self, sort_setup, executor):
        program, _configs, tasks = sort_setup
        expected = SerialExecutor().run_batch(program, tasks)
        results = executor.run_batch(program, tasks)
        assert executor.fallback_reason is None
        assert [r.time for r in results] == [r.time for r in expected]
        assert [r.accuracy for r in results] == [r.accuracy for r in expected]

    def test_run_calls_matches_serial_with_shared_refs(self, executor):
        shared = {"payload": list(range(100))}
        calls = [
            (_scaled_sum, (SharedRef("payload"), float(f)), {}) for f in range(1, 6)
        ]
        expected = SerialExecutor().run_calls(calls, shared=shared)
        assert executor.run_calls(calls, shared=shared) == expected
        assert executor.fallback_reason is None

    def test_empty_batches(self, sort_setup, executor):
        program, _configs, _tasks = sort_setup
        assert executor.run_batch(program, []) == []
        assert executor.run_calls([]) == []

    def test_lease_counters_progress(self, sort_setup, executor):
        program, _configs, tasks = sort_setup
        before = executor.lease_stats.get("leases_issued", 0)
        executor.run_batch(program, tasks)
        stats = executor.lease_stats
        assert stats["leases_issued"] > before
        assert stats["workers_spawned"] >= 2
        assert stats["worker_deaths"] == 0

    def test_unpicklable_program_falls_back_to_serial(self):
        space = ConfigurationSpace([IntegerParameter("x", 1, 5)])
        program = PetaBricksProgram(
            "local", space, lambda config, _input: charge(float(config["x"]))
        )
        tasks = [(program.default_configuration(), None)] * 3
        with DistributedExecutor(workers=2) as ex:
            results = ex.run_batch(program, tasks)
            assert ex.fallback_reason is not None
            assert "not picklable" in ex.fallback_reason
            # The coordinator was never started for a serial fallback.
            assert ex.lease_stats == {}
        assert [r.time for r in results] == [3.0, 3.0, 3.0]

    def test_task_error_propagates_as_lease_error(self, executor):
        # The worker ships its traceback back; the coordinator surfaces it.
        with pytest.raises(LeaseError, match="ZeroDivisionError"):
            executor.run_calls([(_raise_zero_division, (), {})])

    def test_get_executor_spawns_distributed(self):
        ex = get_executor("distributed", workers=1)
        assert isinstance(ex, DistributedExecutor)
        assert ex.workers == 1
        ex.close()


def _raise_zero_division():
    return 1 // 0


# -- measurement ----------------------------------------------------------


class TestDistributedMeasure:
    def test_measure_matches_serial_and_syncs_cache(self, sort_setup):
        program, configs, _tasks = sort_setup
        variant = get_benchmark("sort2")
        source = variant.benchmark.input_source(8, variant.variant, seed=0)
        with Runtime.create(executor="serial") as serial_rt:
            expected = serial_rt.measure(program, configs, source)
        rt = Runtime.create(executor="distributed", workers=2, batch_chunk=6)
        try:
            got = rt.measure(program, configs, source)
            np.testing.assert_array_equal(expected["times"], got["times"])
            np.testing.assert_array_equal(expected["accuracies"], got["accuracies"])
            stats = rt.stats()
            # Worker measurements were folded into the coordinator cache...
            assert stats["cache"]["entries"] == len(source) * len(configs)
            # ...and the lease telemetry surfaced.
            assert stats["distributed"]["leases_issued"] >= 1
            # The folded entries answer run_pairs lookups without executing.
            executed_before = rt.telemetry.runs_executed
            pairs = [(configs[0], source.materialize(0))]
            recalled = rt.run_pairs(program, pairs)
            assert recalled[0].time == expected["times"][0, 0]
            assert rt.telemetry.runs_executed == executed_before
        finally:
            rt.close()

    def test_repeat_measure_is_answered_by_the_cache(self, sort_setup):
        """A second measure of the same matrix issues no lease, and its
        counters equal a serial runtime's exactly."""
        program, configs, _tasks = sort_setup
        variant = get_benchmark("sort2")
        source = variant.benchmark.input_source(8, variant.variant, seed=0)
        with Runtime.create(executor="serial", batch_chunk=6) as serial_rt:
            for _ in range(2):
                expected = serial_rt.measure(program, configs, source)
            serial_counters = serial_rt.telemetry.snapshot()["counters"]
        rt = Runtime.create(executor="distributed", workers=2, batch_chunk=6)
        try:
            rt.measure(program, configs, source)
            leases = rt.stats()["distributed"]["leases_issued"]
            got = rt.measure(program, configs, source)
            assert rt.stats()["distributed"]["leases_issued"] == leases
            assert rt.telemetry.snapshot()["counters"] == serial_counters
            assert serial_counters["runs_executed"] == len(source) * len(configs)
            assert serial_counters["cache_hits"] == len(source) * len(configs)
            np.testing.assert_array_equal(expected["times"], got["times"])
        finally:
            rt.close()

    def test_plain_lists_keep_the_pair_path(self, sort_setup):
        """A materialized input list measures bit-identically to serial."""
        program, configs, _tasks = sort_setup
        variant = get_benchmark("sort2")
        inputs = variant.benchmark.generate_inputs(4, variant.variant, seed=0)
        rt = Runtime.create(executor="distributed", workers=1)
        try:
            with Runtime.create(executor="serial") as serial_rt:
                expected = serial_rt.measure(program, configs, inputs)
            got = rt.measure(program, configs, inputs)
            np.testing.assert_array_equal(expected["times"], got["times"])
        finally:
            rt.close()

    def test_observed_source_pickles_without_observer(self):
        import pickle

        variant = get_benchmark("sort2")
        source = variant.benchmark.input_source(4, variant.variant, seed=0)
        seen = []
        observed = ObservedInputSource(source, seen.append)
        clone = pickle.loads(pickle.dumps(observed))
        # Identical materializations; the clone's observer is silent.
        np.testing.assert_array_equal(observed.materialize(2), clone.materialize(2))
        assert len(seen) == 1  # only the original observed


# -- fault injection -----------------------------------------------------


class TestWorkerDeathRecovery:
    def test_sigkilled_worker_chunk_is_reassigned(self, tmp_path):
        marker = str(tmp_path / "killed")
        with DistributedExecutor(workers=2) as ex:
            calls = [(_kill_self_once, (marker, v), {}) for v in range(5)]
            results = ex.run_calls(calls)
            assert results == [v * 2 for v in range(5)]
            stats = ex.lease_stats
            assert stats["leases_reassigned"] >= 1
            assert stats["worker_deaths"] >= 1
            assert stats["workers_spawned"] >= 3  # replacement spawned
            # The executor stays healthy for the next batch.
            assert ex.run_calls([(_double, (21,), {})]) == [42]
            assert ex.fallback_reason is None

    def test_expired_lease_is_reassigned_to_live_worker(self, tmp_path):
        marker = str(tmp_path / "slow")
        # Exactly one slow call (no marker races), a deadline well under its
        # stall, and a generous retry bound: the sleeping worker may soak up
        # several reassignments before a live one (or its own wake-up)
        # answers, and none of that may fail the batch.
        with DistributedExecutor(
            workers=2, lease_timeout=0.4, max_lease_retries=10
        ) as ex:
            calls = [(_slow_once, (marker, 0, 2.0), {})]
            calls += [(_double, (v,), {}) for v in range(1, 4)]
            results = ex.run_calls(calls)
            assert results == [0, 2, 4, 6]
            stats = ex.lease_stats
            assert stats["leases_reassigned"] >= 1
            assert stats["worker_deaths"] == 0  # hung, not dead

    def test_chunk_that_always_kills_exhausts_retries(self, tmp_path):
        missing_marker = str(tmp_path / "never-created" / "marker")
        with DistributedExecutor(workers=1, max_lease_retries=2) as ex:
            with pytest.raises(LeaseError, match="retries"):
                ex.run_calls([(_kill_self_always, (missing_marker,), {})])
            assert ex.lease_stats["worker_deaths"] >= 1


def _kill_self_always(_marker):
    os.kill(os.getpid(), signal.SIGKILL)


# -- external workers -----------------------------------------------------


class TestExternalWorkerAttach:
    def test_python_m_repro_worker_serves_leases(self, sort_setup):
        program, _configs, tasks = sort_setup
        expected = SerialExecutor().run_batch(program, tasks[:4])
        with DistributedExecutor(workers=0) as ex:
            host, port = ex.address
            env = dict(os.environ)
            src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
            env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
                "PYTHONPATH", ""
            )
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.worker", "--connect", f"{host}:{port}"],
                env=env,
            )
            try:
                results = ex.run_batch(program, tasks[:4])
                assert [r.time for r in results] == [r.time for r in expected]
                assert ex.lease_stats["workers_attached"] == 1
                assert ex.lease_stats["workers_spawned"] == 0
            finally:
                ex.close()
                proc.wait(timeout=10)
        assert proc.returncode == 0

    def test_worker_cli_rejects_bad_address(self):
        from repro.worker import main

        with pytest.raises(SystemExit):
            main(["--connect", "no-port-here"])


class TestPortRebind:
    """A closed coordinator's fixed port must be immediately rebindable."""

    def test_coordinator_rebinds_same_port_after_close(self):
        import socket as socket_module

        from repro.runtime.distributed import Coordinator

        first = Coordinator(workers=0)
        host, port = first.address
        # Leave connection state behind on the old incarnation's port, the
        # way a dying deployment would.
        probe = socket_module.create_connection((host, port))
        first.close()
        probe.close()
        with Coordinator(workers=0, port=port) as second:
            assert second.address == (host, port)

    def test_coordinator_rejects_occupied_port(self):
        from repro.runtime.distributed import Coordinator

        with Coordinator(workers=0) as holder:
            _host, port = holder.address
            with pytest.raises(OSError):
                Coordinator(workers=0, port=port)

    def test_distributed_executor_restart_on_fixed_port(self, sort_setup):
        program, _configs, tasks = sort_setup
        expected = SerialExecutor().run_batch(program, tasks[:2])
        with DistributedExecutor(workers=1) as first:
            first.run_batch(program, tasks[:2])
            _host, port = first.address
        # The restarted executor must come up on the exact same port and
        # serve leases -- the contract a worker fleet's --connect flag and a
        # colocated serving process both rely on.
        with DistributedExecutor(workers=1, port=port) as second:
            assert second.address[1] == port
            results = second.run_batch(program, tasks[:2])
        assert [r.time for r in results] == [r.time for r in expected]


# -- end-to-end determinism ----------------------------------------------


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
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


@pytest.mark.parametrize("test_name", ["sort2", "binpacking"])
def test_run_experiment_bit_identical_to_serial(test_name):
    """The ISSUE acceptance bar: distributed == serial, end to end."""
    serial = run_experiment(test_name, config=tiny_config("serial"))
    distributed = run_experiment(
        test_name, config=tiny_config("distributed", workers=2)
    )
    assert (
        serial.training.production_classifier.name
        == distributed.training.production_classifier.name
    )
    np.testing.assert_array_equal(
        serial.training.dataset.times, distributed.training.dataset.times
    )
    for name, outcome in serial.methods.items():
        np.testing.assert_array_equal(
            outcome.times, distributed.methods[name].times
        )
    dist_stats = distributed.runtime_stats.get("distributed")
    assert dist_stats is not None
    assert dist_stats["leases_issued"] >= 1
    assert dist_stats["worker_deaths"] == 0


def test_workers_zero_spawns_no_workers():
    """``workers=0`` on the distributed executor means attached workers only."""
    runtime = tiny_config("distributed", workers=0).make_runtime()
    try:
        assert runtime.executor.workers == 0
        runtime.executor.coordinator.ensure_workers()
        stats = runtime.stats()
        assert set(stats) == {"executor", "telemetry", "distributed", "cache", "task_cache"}
        assert stats["distributed"]["workers_spawned"] == 0
    finally:
        runtime.close()

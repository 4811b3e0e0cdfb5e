"""Tests for the one measurement path.

``Runtime.measure`` enumerates input-major (configuration, input) pairs
through the same chunked dispatch as ``run_pairs`` on every executor: cache
recall per cell, in-batch deduplication, misses to ``run_batch``.  The
process pool answers each lease of runs with one pickled ``(2, n)`` float64
block (``ProcessExecutor.run_measure``).  Every combination must stay
bit-identical to the serial, cache-less reference and execute exactly the
cells the cache did not already hold.
"""

import random

import numpy as np
import pytest

from repro.benchmarks_suite import get_benchmark
from repro.lang.config import ConfigurationSpace, IntegerParameter
from repro.lang.cost import charge
from repro.lang.program import PetaBricksProgram
from repro.runtime import ProcessExecutor, Runtime, SerialExecutor
from repro.runtime import runtime as runtime_module
from repro.runtime.cache import RunCache


@pytest.fixture(scope="module")
def sort_setup():
    variant = get_benchmark("sort2")
    program = variant.benchmark.program
    inputs = variant.benchmark.generate_inputs(6, variant.variant, seed=0)
    configs = [program.default_configuration()]
    configs.append(program.config_space.sample(random.Random(7)))
    return program, configs, inputs


def serial_matrices(program, configs, inputs):
    return Runtime(executor=SerialExecutor(), cache=None).measure(
        program, configs, inputs
    )


def assert_identical(actual, expected):
    assert np.array_equal(actual["times"], expected["times"])
    assert np.array_equal(actual["accuracies"], expected["accuracies"])


def closure_program():
    """A program whose run function is a lambda: it cannot reach a worker."""
    space = ConfigurationSpace([IntegerParameter("x", 1, 5)])
    return PetaBricksProgram(
        "local", space, lambda config, value: charge(float(config["x"]) * value)
    )


class TestRunMeasure:
    def test_matches_serial_bitwise(self, sort_setup):
        program, configs, inputs = sort_setup
        tasks = [(c, i) for i in inputs for c in configs]
        expected = SerialExecutor().run_batch(program, tasks)
        with ProcessExecutor(workers=2) as executor:
            times, accuracies = executor.run_measure(program, tasks)
            assert executor.fallback_reason is None
        assert times.tolist() == [r.time for r in expected]
        assert accuracies.tolist() == [r.accuracy for r in expected]

    def test_empty_batch(self, sort_setup):
        program, _, _ = sort_setup
        with ProcessExecutor(workers=2) as executor:
            times, accuracies = executor.run_measure(program, [])
        assert times.size == 0 and accuracies.size == 0

    def test_unpicklable_program_runs_serially(self):
        program = closure_program()
        tasks = [(program.default_configuration(), 1.0)] * 3
        with ProcessExecutor(workers=2) as executor:
            times, _accuracies = executor.run_measure(program, tasks)
            assert "not picklable" in executor.fallback_reason
            assert executor._pool is None  # nothing was submitted
        assert times.tolist() == [3.0, 3.0, 3.0]


class TestProcessMeasure:
    def test_chunked_process_measure_counts(self, sort_setup):
        program, configs, inputs = sort_setup
        expected = serial_matrices(program, configs, inputs)
        with Runtime(
            executor=ProcessExecutor(workers=2), cache=None, batch_chunk=5
        ) as runtime:
            actual = runtime.measure(program, configs, inputs)
            counters = runtime.telemetry.snapshot()["counters"]
        assert_identical(actual, expected)
        # 6 inputs x 2 configs = 12 pairs in chunks of 5 -> 3 chunks.
        assert counters["chunks_dispatched"] == 3
        assert counters["runs_requested"] == 12
        assert counters["runs_executed"] == 12

    def test_caching_runtime_fills_its_cache(self, sort_setup):
        program, configs, inputs = sort_setup
        expected = serial_matrices(program, configs, inputs)
        with Runtime(executor=ProcessExecutor(workers=2), cache=RunCache()) as runtime:
            assert_identical(runtime.measure(program, configs, inputs), expected)
            assert len(runtime.cache) == 12
            # A repeat is answered from the cache, not re-executed.
            assert_identical(runtime.measure(program, configs, inputs), expected)
            # So are single pairs through ``run_pairs``.
            recalled = runtime.run_pairs(
                program, [(configs[1], inputs[3]), (configs[0], inputs[5])]
            )
            counters = runtime.telemetry.snapshot()["counters"]
        assert counters["cache_hits"] == 14
        assert counters["runs_executed"] == 12
        assert [r.time for r in recalled] == [
            expected["times"][3, 1], expected["times"][5, 0]
        ]

    def test_streamed_repeat_counts_equal_serial(self, sort_setup):
        """A lazy source measured twice: each cell executes once, and the
        process runtime's counters equal a serial runtime's exactly."""
        program, configs, _ = sort_setup
        variant = get_benchmark("sort2")
        source = variant.benchmark.input_source(8, variant.variant, seed=0)
        matrices, counters = {}, {}
        for executor in (SerialExecutor(), ProcessExecutor(workers=2)):
            with Runtime(executor=executor, cache=RunCache(), batch_chunk=6) as runtime:
                first = runtime.measure(program, configs, source)
                assert_identical(runtime.measure(program, configs, source), first)
                matrices[executor.name] = first
                counters[executor.name] = runtime.telemetry.snapshot()["counters"]
        assert_identical(matrices["process"], matrices["serial"])
        assert counters["process"] == counters["serial"]
        assert counters["serial"]["runs_executed"] == len(source) * len(configs)
        assert counters["serial"]["cache_hits"] == len(source) * len(configs)

    def test_unpicklable_program_falls_back_to_serial(self):
        program = closure_program()
        configs = [program.default_configuration()]
        inputs = [1.0, 2.0, 3.0]
        expected = serial_matrices(program, configs, inputs)
        with Runtime(executor=ProcessExecutor(workers=2), cache=None) as runtime:
            actual = runtime.measure(program, configs, inputs)
            assert "not picklable" in runtime.executor.fallback_reason
        assert_identical(actual, expected)

    def test_input_source_rows_materialize_once(self, sort_setup):
        """Chunking an InputSource must keep per-row single materialization."""
        program, configs, _ = sort_setup
        variant = get_benchmark("sort2")
        source = variant.benchmark.input_generators()["synthetic"].source(6, seed=0)
        expected = serial_matrices(program, configs, source.materialized())
        with Runtime(
            executor=ProcessExecutor(workers=2), cache=None, batch_chunk=4
        ) as runtime:
            assert_identical(runtime.measure(program, configs, source), expected)


# -- every executor x cache state x chunking -----------------------------


@pytest.fixture(scope="module")
def executors():
    """One executor per strategy, shared by the table (spawning is slow)."""
    pool = {
        "serial": SerialExecutor(),
        "process": ProcessExecutor(workers=2),
    }
    yield pool
    for executor in pool.values():
        executor.close()


@pytest.fixture(scope="module")
def table_setup(sort_setup):
    """Inputs with one content duplicate (a copy of row 0) as the last row.

    ``rows[i]`` is the first row holding row ``i``'s content, so a cell
    ``(rows[i], j)`` names the distinct run that cell ``(i, j)`` stands for.
    """
    program, configs, inputs = sort_setup
    inputs = list(inputs) + [np.array(inputs[0], copy=True)]
    rows = list(range(len(inputs) - 1)) + [0]
    configs = list(configs) + [program.config_space.sample(random.Random(11))]
    return program, configs, inputs, rows


@pytest.mark.parametrize(
    "batch_chunk,default_chunk",
    # The last case: None means DEFAULT_BATCH_CHUNK, so with the default
    # patched to 5 it must dispatch exactly as batch_chunk=5 does.
    [(None, None), (5, None), (None, 5)],
    ids=["default", "chunk5", "default5"],
)
@pytest.mark.parametrize("cache_state", ["off", "cold", "half-warm"])
@pytest.mark.parametrize("executor_name", ["serial", "process"])
def test_measure_matches_serial_everywhere(
    executors, table_setup, monkeypatch, executor_name, cache_state, batch_chunk,
    default_chunk,
):
    program, configs, inputs, rows = table_setup
    n, k = len(inputs), len(configs)
    expected = serial_matrices(program, configs, inputs)
    if default_chunk is not None:
        monkeypatch.setattr(runtime_module, "DEFAULT_BATCH_CHUNK", default_chunk)
    runtime = Runtime(
        executor=executors[executor_name],
        cache=None if cache_state == "off" else RunCache(),
        batch_chunk=batch_chunk,
    )
    cached = set()
    if cache_state == "half-warm":
        cells = random.Random(5).sample(
            [(i, j) for i in range(n) for j in range(k)], n * k // 2
        )
        runtime.run_pairs(program, [(configs[j], inputs[i]) for i, j in cells])
        cached = {(rows[i], j) for i, j in cells}
    before = runtime.telemetry.snapshot()["counters"]

    actual = runtime.measure(program, configs, inputs)

    after = runtime.telemetry.snapshot()["counters"]
    assert_identical(actual, expected)
    assert "executor_fallback" not in runtime.stats()
    chunk = batch_chunk or default_chunk or runtime_module.DEFAULT_BATCH_CHUNK
    dispatched = after["chunks_dispatched"] - before.get("chunks_dispatched", 0)
    assert dispatched == -(-n * k // chunk)
    executed = after.get("runs_executed", 0) - before.get("runs_executed", 0)
    if cache_state == "off":
        assert executed == n * k
    else:
        distinct = {(rows[i], j) for i in range(n) for j in range(k)}
        assert executed == len(distinct - cached)

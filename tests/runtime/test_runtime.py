"""Tests for the Runtime facade (cache-aware batching) and run keys."""

import dataclasses
import sqlite3

import numpy as np
import pytest

from repro.benchmarks_suite import get_benchmark
from repro.lang.config import ConfigurationSpace, IntegerParameter
from repro.lang.cost import charge
from repro.lang.program import PetaBricksProgram
from repro.runtime import (
    RunCache,
    Runtime,
    SerialExecutor,
    config_key,
    input_key,
    join_run_key,
    program_fingerprint,
    program_key,
    run_key,
)


def counting_program(name="counted"):
    """A tiny program that records how many times it really executed."""
    calls = []

    def run(config, program_input):
        calls.append((config["x"], program_input))
        charge(float(config["x"]) * (1.0 + (program_input or 0)))
        return config["x"]

    space = ConfigurationSpace([IntegerParameter("x", 1, 10)])
    return PetaBricksProgram(name, space, run), calls


class TestRuntimeRun:
    def test_cache_hit_returns_identical_result(self):
        program, calls = counting_program()
        runtime = Runtime(cache=RunCache())
        config = program.default_configuration()
        first = runtime.run(program, config, 3)
        second = runtime.run(program, config, 3)
        assert second is first
        assert len(calls) == 1
        assert runtime.telemetry.cache_hits == 1
        assert runtime.telemetry.runs_executed == 1

    def test_no_cache_always_executes(self):
        program, calls = counting_program()
        runtime = Runtime(cache=None)
        config = program.default_configuration()
        runtime.run(program, config, 3)
        runtime.run(program, config, 3)
        assert len(calls) == 2
        assert runtime.telemetry.runs_executed == 2

    def test_need_output_reexecutes_stripped_entry(self):
        program, calls = counting_program()
        runtime = Runtime(cache=RunCache())
        config = program.default_configuration()
        measured = runtime.run(program, config, 3)
        assert measured.output is None  # measurement runs don't keep outputs
        full = runtime.run(program, config, 3, need_output=True)
        assert full.output == config["x"]
        assert len(calls) == 2
        # The refreshed entry now serves both kinds of request.
        assert runtime.run(program, config, 3, need_output=True) is full
        assert len(calls) == 2


class TestRunInfo:
    def test_reports_cache_provenance(self):
        program, calls = counting_program()
        runtime = Runtime(cache=RunCache())
        config = program.default_configuration()
        first, first_hit = runtime.run_info(program, config, 3)
        second, second_hit = runtime.run_info(program, config, 3)
        assert (first_hit, second_hit) == (False, True)
        assert second is first
        assert len(calls) == 1

    def test_cacheless_never_reports_hits(self):
        program, _calls = counting_program()
        runtime = Runtime(cache=None)
        config = program.default_configuration()
        _result, hit = runtime.run_info(program, config, 3)
        _result, hit_again = runtime.run_info(program, config, 3)
        assert hit is False and hit_again is False

    def test_need_output_miss_then_hit(self):
        program, _calls = counting_program()
        runtime = Runtime(cache=RunCache())
        config = program.default_configuration()
        _result, hit = runtime.run_info(program, config, 3, need_output=True)
        result, hit_again = runtime.run_info(program, config, 3, need_output=True)
        assert (hit, hit_again) == (False, True)
        assert result.output == config["x"]

    @pytest.mark.parametrize("cached", [True, False])
    def test_recall_and_record_are_its_two_halves(self, cached):
        """A caller that runs the program itself: recall, run, record."""
        program, _calls = counting_program()
        runtime = Runtime(cache=RunCache() if cached else None)
        config = program.default_configuration()
        key = run_key(program, config, 3)
        assert runtime.recall(key, need_output=True) is None
        stored = runtime.record(key, program.run(config, 3), need_output=True)
        assert stored.output == config["x"]
        assert runtime.recall(key, need_output=True) is (stored if cached else None)
        counters = runtime.telemetry.counters
        assert (counters["runs_requested"], counters["runs_executed"]) == (2, 1)
        assert counters.get("cache_hits", 0) == (1 if cached else 0)


class TestRunPairs:
    def test_duplicates_execute_once_under_cache(self):
        program, calls = counting_program()
        runtime = Runtime(cache=RunCache())
        config = program.default_configuration()
        results = runtime.run_pairs(program, [(config, 1)] * 5)
        assert len(results) == 5
        assert len({id(r) for r in results}) == 1
        assert len(calls) == 1
        assert runtime.telemetry.runs_requested == 5
        assert runtime.telemetry.cache_hits == 4

    def test_duplicates_all_execute_without_cache(self):
        program, calls = counting_program()
        runtime = Runtime(cache=None)
        config = program.default_configuration()
        runtime.run_pairs(program, [(config, 1)] * 5)
        assert len(calls) == 5

    def test_order_preserved(self):
        program, _ = counting_program()
        configs = [
            program.default_configuration().with_updates(x=x) for x in (2, 7, 4)
        ]
        runtime = Runtime(cache=RunCache())
        results = runtime.run_pairs(program, [(c, 0) for c in configs])
        assert [r.time for r in results] == [2.0, 7.0, 4.0]


class TestMeasure:
    def test_matrix_matches_direct_loops(self):
        variant = get_benchmark("sort2")
        program = variant.benchmark.program
        inputs = variant.benchmark.generate_inputs(5, variant.variant, seed=1)
        configs = [program.default_configuration()]
        runtime = Runtime(cache=RunCache())
        measured = runtime.measure(program, configs, inputs)
        assert measured["times"].shape == (5, 1)
        for i, program_input in enumerate(inputs):
            direct = program.run(configs[0], program_input)
            assert measured["times"][i, 0] == direct.time
            assert measured["accuracies"][i, 0] == direct.accuracy

    def test_warm_cache_executes_nothing(self):
        program, calls = counting_program()
        configs = [program.default_configuration().with_updates(x=x) for x in (1, 2)]
        runtime = Runtime(cache=RunCache())
        first = runtime.measure(program, configs, [0, 1, 2])
        executed = len(calls)
        second = runtime.measure(program, configs, [0, 1, 2])
        assert len(calls) == executed
        assert np.array_equal(first["times"], second["times"])
        stats = runtime.stats()
        assert stats["telemetry"]["hit_rate"] == pytest.approx(0.5)
        # The serial executor adds no keys of its own.
        assert set(stats) == {"executor", "telemetry", "cache"}


class TestPersistedRuntime:
    def test_create_loads_and_saves_cache(self, tmp_path):
        path = str(tmp_path / "runs.db")
        program, calls = counting_program()
        config = program.default_configuration()

        with Runtime.create(cache_path=path) as runtime:
            runtime.run(program, config, 1)
            assert runtime.save_cache() == 1

        program2, calls2 = counting_program()
        with Runtime.create(cache_path=path) as warm:
            result = warm.run(program2, config, 1)
        assert calls2 == []  # served from disk, no execution
        assert result.time == program.run(config, 1).time

    def test_one_entry_cache_executes_nothing_saved(self, tmp_path):
        """A capped cache on a store stays complete: with room for one
        entry it still answers every saved run without executing."""
        path = str(tmp_path / "runs.db")
        program, _ = counting_program()
        configs = [program.default_configuration()]
        with Runtime.create(cache_path=path) as runtime:
            first = runtime.measure(program, configs, list(range(8)))
            runtime.save_cache()
        program2, calls2 = counting_program()
        with Runtime.create(cache_path=path, max_entries=1) as tiny:
            for _ in range(2):
                again = tiny.measure(program2, configs, list(range(8)))
                assert np.array_equal(again["times"], first["times"])
        assert calls2 == []

    def test_each_chunk_is_saved_before_the_next_dispatches(self, tmp_path):
        """A second cache on the store reads every earlier chunk's runs at
        the moment the next chunk reaches the executor."""
        path = str(tmp_path / "runs.db")
        program, _ = counting_program()
        config = program.default_configuration()
        keys = [run_key(program, config, i) for i in range(9)]
        stored_at_dispatch = []

        class ReadingExecutor(SerialExecutor):
            def run_batch(self, program, tasks):
                reader = RunCache(persist_path=path)
                try:
                    reader.load()
                    stored_at_dispatch.append(sum(reader.get(key) is not None for key in keys))
                finally:
                    reader.close()
                return super().run_batch(program, tasks)

        cache = RunCache(persist_path=path)
        with Runtime(executor=ReadingExecutor(), cache=cache, batch_chunk=3) as runtime:
            runtime.run_pairs(program, [(config, i) for i in range(9)])
            assert stored_at_dispatch == [0, 3, 6]
            assert runtime.save_cache() == 0  # the last chunk's boundary saved it

    def test_runtime_without_a_store_saves_nothing(self, monkeypatch):
        saves = []
        monkeypatch.setattr(RunCache, "save", lambda cache: saves.append(cache))
        program, _ = counting_program()
        runtime = Runtime(cache=RunCache(), batch_chunk=2)
        runtime.measure(program, [program.default_configuration()], list(range(5)))
        assert runtime.telemetry.snapshot()["counters"]["chunks_dispatched"] == 3
        assert saves == []

    def test_close_closes_the_store(self, tmp_path):
        runtime = Runtime.create(cache_path=str(tmp_path / "runs.db"))
        connection = runtime.cache._db
        runtime.close()
        with pytest.raises(sqlite3.ProgrammingError):
            connection.execute("SELECT 1")

    def test_save_cache_without_cache_is_noop(self):
        assert Runtime(cache=None).save_cache() == 0

    def test_use_cache_false_wins_over_cache_path(self, tmp_path):
        """--no-cache must disable even a persisted cache file."""
        path = str(tmp_path / "runs.db")
        program, _ = counting_program()
        config = program.default_configuration()
        with Runtime.create(cache_path=path) as seeded:
            seeded.run(program, config, 1)
            seeded.save_cache()

        uncached = Runtime.create(use_cache=False, cache_path=path)
        assert uncached.cache is None
        _, calls = counting_program()  # fresh call log, same behaviour
        uncached.run(program, config, 1)
        assert uncached.telemetry.runs_executed == 1
        assert uncached.telemetry.cache_hits == 0


class TestKeys:
    def test_same_content_same_key(self):
        variant = get_benchmark("sort2")
        program = variant.benchmark.program
        config = program.default_configuration()
        a = np.array([3.0, 1.0, 2.0])
        b = np.array([3.0, 1.0, 2.0])
        assert run_key(program, config, a) == run_key(program, config, b)

    def test_run_key_joins_program_config_and_input_keys(self):
        """Callers that hold the three digests build the same key."""
        program, _ = counting_program()
        config = program.default_configuration()
        digest = program_key(program)
        assert digest == f"counted:{program_fingerprint(program)}"
        assert join_run_key(digest, config_key(config), input_key(3)) == run_key(
            program, config, 3
        )

    def test_different_input_different_key(self):
        assert input_key(np.array([1.0, 2.0])) != input_key(np.array([2.0, 1.0]))
        assert input_key(None) != input_key(0)

    def test_mapping_and_set_keys_ignore_iteration_order(self):
        assert input_key({"a": 1, "b": [2.0, 3.0]}) == input_key({"b": [2.0, 3.0], "a": 1})
        assert input_key({3, 1, 2}) == input_key({2, 3, 1})
        assert input_key(frozenset({"x", "y"})) == input_key({"y", "x"})

    def test_numpy_scalars_key_like_python_scalars(self):
        assert input_key(np.int64(7)) == input_key(7)
        assert input_key(np.float32(0.5)) == input_key(0.5)

    @pytest.mark.parametrize(
        "a, b",
        [
            (1, 1.0),
            (True, 1),
            ("ab", b"ab"),
            (None, "none"),
            ({1, 2}, [1, 2]),
            ({"a": 1}, [("a", 1)]),
            (np.array([1, 2], dtype=np.int64), np.array([1.0, 2.0])),
            (np.zeros((2, 3)), np.zeros((3, 2))),
        ],
        ids=[
            "int-float", "bool-int", "str-bytes", "none-str", "set-list",
            "dict-pairs", "ndarray-dtype", "ndarray-shape",
        ],
    )
    def test_lookalike_values_key_apart(self, a, b):
        """Values that print or compare alike but are different inputs to a
        program must not share a cache entry."""
        assert input_key(a) != input_key(b)

    def test_dataclass_key_covers_every_field(self):
        @dataclasses.dataclass
        class Problem:
            points: np.ndarray
            k: int

        base = Problem(np.arange(4.0), 2)
        assert input_key(base) == input_key(Problem(np.arange(4.0), 2))
        assert input_key(base) != input_key(Problem(np.arange(4.0), 3))
        assert input_key(base) != input_key(Problem(np.arange(4.0) + 1, 2))

    def test_unpicklable_input_keys_by_repr(self):
        class Opaque:  # pickle cannot find a class defined in a function
            def __init__(self, label):
                self.label = label

            def __repr__(self):
                return f"Opaque({self.label!r})"

        assert input_key(Opaque("a")) == input_key(Opaque("a"))
        assert input_key(Opaque("a")) != input_key(Opaque("b"))

    def test_different_config_different_key(self):
        program, _ = counting_program()
        base = program.default_configuration()
        assert config_key(base) != config_key(base.with_updates(x=base["x"] + 1))

    def test_same_name_different_behaviour_distinct_fingerprint(self):
        space = ConfigurationSpace([IntegerParameter("x", 1, 5)])

        def run_a(config, _input):
            charge(1.0)

        def run_b(config, _input):
            charge(2.0)

        a = PetaBricksProgram("twin", space, run_a)
        b = PetaBricksProgram("twin", space, run_b)
        assert program_fingerprint(a) != program_fingerprint(b)

    def test_different_accuracy_metric_distinct_fingerprint(self):
        from repro.lang.accuracy import AccuracyMetric

        space = ConfigurationSpace([IntegerParameter("x", 1, 5)])

        def run(config, _input):
            charge(1.0)

        def strict(_program_input, _output):
            return 0.5

        a = PetaBricksProgram("metric-twin", space, run)
        b = PetaBricksProgram(
            "metric-twin", space, run, accuracy_metric=AccuracyMetric("strict", strict)
        )
        assert program_fingerprint(a) != program_fingerprint(b)

    def test_shared_program_shared_fingerprint(self):
        sort1 = get_benchmark("sort1").benchmark.program
        sort2 = get_benchmark("sort2").benchmark.program
        assert program_fingerprint(sort1) == program_fingerprint(sort2)

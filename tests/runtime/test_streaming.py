"""Streaming (chunked) batch dispatch: determinism and memory shape.

The acceptance bar for the 50k-input-regime work: the size of
``Runtime.batch_chunk`` (or ``ExperimentConfig.batch_chunk`` /
``--batch-chunk``) must change *nothing* about the results -- the full
experiment pipeline and the Level-2 search are bit-identical with small
chunks and with the default, which keeps every batch of these tiny runs
whole ("unchunked"), under every executor -- while bounding the transient
footprint of a measurement batch by O(chunk).
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.benchmarks_suite import get_benchmark
from repro.core.level2 import Level2Config, run_level2
from repro.core.synthetic import synthetic_level2_dataset
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.runtime import RunCache, Runtime

METHODS = ("static_oracle", "dynamic_oracle", "two_level", "one_level")


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
        workers=2,
        batch_chunk=None,
        stream_inputs=False,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


@pytest.fixture(scope="module")
def unchunked_result():
    return run_experiment("sort1", tiny_config("serial"))


class TestExperimentStreamingDeterminism:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_chunked_run_is_bit_identical(self, unchunked_result, executor):
        """batch_chunk=7 (deliberately not dividing anything evenly)."""
        result = run_experiment("sort1", tiny_config(executor, batch_chunk=7))
        assert result.runtime_stats["executor"] == executor
        assert "executor_fallback" not in result.runtime_stats
        for method in METHODS:
            np.testing.assert_array_equal(
                result.methods[method].times, unchunked_result.methods[method].times
            )
            np.testing.assert_array_equal(
                result.speedups_over_static(method),
                unchunked_result.speedups_over_static(method),
            )
            assert result.satisfaction(method) == unchunked_result.satisfaction(method)
        assert result.training.landmarks == unchunked_result.training.landmarks

    def test_chunk_of_one_is_bit_identical(self, unchunked_result):
        """The degenerate chunk size exercises every chunk boundary."""
        result = run_experiment("sort1", tiny_config("serial", batch_chunk=1))
        for method in METHODS:
            np.testing.assert_array_equal(
                result.methods[method].times, unchunked_result.methods[method].times
            )

    def test_telemetry_totals_match_unchunked(self, unchunked_result):
        result = run_experiment("sort1", tiny_config("serial", batch_chunk=5))
        for counter in ("runs_requested", "runs_executed", "tasks_requested"):
            assert (
                result.runtime_stats["telemetry"]["counters"][counter]
                == unchunked_result.runtime_stats["telemetry"]["counters"][counter]
            )


class TestStreamedInputDeterminism:
    """A streamed ``InputSource`` must change nothing but peak memory.

    The acceptance bar of the input-streaming work: a run fed a lazy input
    source (``stream_inputs=True``) produces bit-identical
    ``PerformanceDataset`` arrays and selector output to the
    materialized-list path, on every executor, with and without chunking
    and the LRU cache cap.
    """

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_streamed_run_is_bit_identical(self, unchunked_result, executor):
        result = run_experiment(
            "sort1", tiny_config(executor, stream_inputs=True, batch_chunk=7)
        )
        assert "executor_fallback" not in result.runtime_stats
        baseline_dataset = unchunked_result.training.dataset
        dataset = result.training.dataset
        for matrix in ("features", "extraction_costs", "times", "accuracies"):
            np.testing.assert_array_equal(
                getattr(dataset, matrix), getattr(baseline_dataset, matrix)
            )
        assert result.training.landmarks == unchunked_result.training.landmarks
        assert (
            result.training.production_classifier.name
            == unchunked_result.training.production_classifier.name
        )
        for method in METHODS:
            np.testing.assert_array_equal(
                result.methods[method].times, unchunked_result.methods[method].times
            )
            assert result.satisfaction(method) == unchunked_result.satisfaction(method)

    def test_streamed_run_with_capped_cache_is_bit_identical(self, unchunked_result):
        result = run_experiment(
            "sort1",
            tiny_config(
                "serial", stream_inputs=True, batch_chunk=5, cache_max_entries=16
            ),
        )
        assert result.runtime_stats["cache"]["evictions"] > 0
        for method in METHODS:
            np.testing.assert_array_equal(
                result.methods[method].times, unchunked_result.methods[method].times
            )

    def test_streamed_telemetry_attributes_generation(self):
        """Streaming moves generation cost out of ``generate_inputs`` into a
        per-materialization ``inputs.generate`` phase, and counts chunks."""
        result = run_experiment(
            "sort1", tiny_config("serial", stream_inputs=True, batch_chunk=7)
        )
        telemetry = result.runtime_stats["telemetry"]
        assert "generate_inputs" not in telemetry["phases"]
        generate = telemetry["phases"]["inputs.generate"]
        assert generate["calls"] == telemetry["counters"]["inputs_generated"] > 0
        assert telemetry["counters"]["chunks_dispatched"] > 0

    def test_materialized_telemetry_keeps_legacy_phase(self, unchunked_result):
        telemetry = unchunked_result.runtime_stats["telemetry"]
        assert "generate_inputs" in telemetry["phases"]
        assert "inputs_generated" not in telemetry["counters"]

    def test_streamed_dataset_carries_lazy_source(self):
        from repro.core.inputs import InputSource

        result = run_experiment("sort1", tiny_config("serial", stream_inputs=True))
        dataset = result.training.dataset
        assert isinstance(dataset.inputs, InputSource)
        # The source still behaves like the input list consumers expect.
        assert len(dataset.inputs) == 24
        assert dataset.subset([3, 1]).inputs is not None

    def test_streamed_dataset_ships_to_workers_without_inputs(self):
        """The view task batches share with executor workers must drop the
        lazy source (its observer closure cannot cross a spawn boundary)
        and must be identity-stable so the process pool is reused."""
        import pickle

        result = run_experiment("sort1", tiny_config("serial", stream_inputs=True))
        dataset = result.training.dataset
        shipped = dataset.without_inputs()
        assert shipped.inputs is None
        assert shipped is dataset.without_inputs()  # memoized
        assert shipped.features is dataset.features  # matrices shared, not copied
        pickle.dumps(shipped)  # the closure-bearing source never rides along

    def test_measure_materializes_each_input_once(self):
        """Input-major enumeration: a lazy source costs N materializations
        per matrix, not N x K, chunked or not."""
        from repro.benchmarks_suite.sort import generators
        from repro.core.inputs import GeneratedInputSource

        variant = get_benchmark("sort1")
        program = variant.benchmark.program
        calls = []

        def tracked(index, seed):
            calls.append(index)
            return generators.real_world_item(index, seed)

        import random

        rng = random.Random(0)
        configs = [program.default_configuration()] + [
            program.config_space.sample(rng) for _ in range(2)
        ]
        for chunk in (None, 4):
            calls.clear()
            measured = Runtime(batch_chunk=chunk).measure(
                program, configs, GeneratedInputSource(6, 0, tracked)
            )
            assert measured["times"].shape == (6, 3)
            assert calls == list(range(6))


class TestLevel2StreamingDeterminism:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_chunked_search_selects_identical_production(self, executor):
        """A small ``batch_chunk`` leaves the search as it is: task batches
        go to the executor whole, so it selects what the default does."""
        dataset = synthetic_level2_dataset(n=40, seed=3)
        rows = np.arange(40)
        train_rows, test_rows = rows[:28], rows[28:]
        config = Level2Config(max_subsets=12, seed=0)

        baseline = run_level2(dataset, train_rows, test_rows, config=config)
        with Runtime.create(executor=executor, workers=2, batch_chunk=3) as runtime:
            chunked = run_level2(
                dataset, train_rows, test_rows, config=config, runtime=runtime
            )
        assert (
            chunked.production.classifier.name == baseline.production.classifier.name
        )
        assert chunked.production.performance_cost == baseline.production.performance_cost
        assert [e.performance_cost for e in chunked.evaluations] == [
            e.performance_cost for e in baseline.evaluations
        ]
        np.testing.assert_array_equal(chunked.labels, baseline.labels)


class TestIterPairsStreaming:
    def make_program(self):
        variant = get_benchmark("sort1")
        return variant, variant.benchmark.program

    def test_iter_pairs_consumes_lazily(self):
        """The pair iterator is drained chunk by chunk, never materialized."""
        variant, program = self.make_program()
        inputs = variant.benchmark.generate_inputs(8, variant.variant, seed=0)
        config = program.default_configuration()
        consumed = []

        def pair_gen():
            for program_input in inputs:
                consumed.append(len(consumed))
                yield (config, program_input)

        runtime = Runtime(batch_chunk=3)
        iterator = runtime.iter_pairs(program, pair_gen())
        first = next(iterator)
        assert first.time > 0
        # Only the first chunk's pairs have been pulled so far.
        assert len(consumed) == 3
        rest = list(iterator)
        assert len(rest) == 7
        assert len(consumed) == 8

    def test_measure_identical_with_and_without_chunking(self):
        variant, program = self.make_program()
        inputs = variant.benchmark.generate_inputs(10, variant.variant, seed=0)
        configs = [program.default_configuration()]
        import random

        rng = random.Random(0)
        configs += [program.config_space.sample(rng) for _ in range(2)]

        plain = Runtime().measure(program, configs, inputs)
        chunked = Runtime(batch_chunk=4).measure(program, configs, inputs)
        cached_chunked = Runtime(cache=RunCache(), batch_chunk=4).measure(
            program, configs, inputs
        )
        np.testing.assert_array_equal(plain["times"], chunked["times"])
        np.testing.assert_array_equal(plain["accuracies"], chunked["accuracies"])
        np.testing.assert_array_equal(plain["times"], cached_chunked["times"])

    def test_duplicate_pairs_across_chunks_hit_cache(self):
        variant, program = self.make_program()
        inputs = variant.benchmark.generate_inputs(2, variant.variant, seed=0)
        config = program.default_configuration()
        runtime = Runtime(cache=RunCache(), batch_chunk=2)
        # Four copies of the same pair, split across two chunks: the second
        # chunk must be answered by the cache entries the first chunk filled.
        results = runtime.run_pairs(program, [(config, inputs[0])] * 4)
        assert len({r.time for r in results}) == 1
        assert runtime.telemetry.runs_executed == 1
        assert runtime.telemetry.cache_hits == 3

    def test_invalid_batch_chunk_rejected(self):
        with pytest.raises(ValueError):
            Runtime(batch_chunk=0)


class TestPeakMemory:
    """Traced peak memory at the sizes where chunking and streaming must
    pay off.  Both runs of each comparison are serial, so the peaks do not
    depend on ``REPRO_EXECUTOR``."""

    def test_small_chunks_halve_the_matrix_peak(self):
        """Without a cache, one chunk holds every pair and every result
        (program outputs included) until it completes: O(N x K) transient
        memory.  Chunks of 32 fold into the output arrays and are dropped.
        400 x 4 runs stay below ``DEFAULT_BATCH_CHUNK``, so ``None`` sends
        the matrix as one chunk."""
        variant = get_benchmark("sort1")
        program = variant.benchmark.program
        inputs = variant.benchmark.generate_inputs(400, variant.variant, seed=0)
        rng = random.Random(0)
        configs = [program.default_configuration()] + [
            program.config_space.sample(rng) for _ in range(3)
        ]

        def measure_with_peak(batch_chunk):
            runtime = Runtime.create(
                executor="serial", use_cache=False, batch_chunk=batch_chunk
            )
            tracemalloc.start()
            try:
                measured = runtime.measure(program, configs, inputs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                runtime.close()
            return measured, peak

        full, full_peak = measure_with_peak(None)
        chunked, chunk_peak = measure_with_peak(32)
        np.testing.assert_array_equal(full["times"], chunked["times"])
        np.testing.assert_array_equal(full["accuracies"], chunked["accuracies"])
        assert chunk_peak < full_peak * 0.5, (
            f"chunked peak {chunk_peak} not below half of one-chunk peak {full_peak}"
        )

    def test_streamed_inputs_stop_the_peak_growing_with_n(self):
        """The whole experiment at 120 and 360 inputs, materialized (input
        list, one default chunk, unbounded cache) and streamed (lazy source,
        chunks of 32, a 256-entry cache).  At 360 the streamed peak must be
        well below the materialized one, and its growth with N a fraction
        of the materialized growth: what remains is the <F, T, A, E>
        datatable, not the input list or the cache."""

        def config(n_inputs, streamed):
            return ExperimentConfig(
                n_inputs=n_inputs,
                n_clusters=3,
                tuner_generations=2,
                tuner_population=4,
                tuning_neighbors=2,
                max_subsets=8,
                seed=0,
                executor="serial",
                stream_inputs=streamed,
                batch_chunk=32 if streamed else None,
                cache_max_entries=256 if streamed else None,
            )

        # Warm up imports (NumPy pulls submodules on first use), so the
        # traced peaks compare run-scale allocations, not module objects.
        run_experiment("sort1", config(8, streamed=False))

        def traced_peak(n_inputs, streamed):
            tracemalloc.start()
            try:
                run_experiment("sort1", config(n_inputs, streamed))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak

        materialized = {n: traced_peak(n, streamed=False) for n in (120, 360)}
        streamed = {n: traced_peak(n, streamed=True) for n in (120, 360)}
        growth_materialized = materialized[360] - materialized[120]
        growth_streamed = streamed[360] - streamed[120]
        assert streamed[360] < materialized[360] * 0.65, (
            f"streamed peak {streamed[360]} not decisively below "
            f"materialized peak {materialized[360]}"
        )
        assert growth_streamed < growth_materialized * 0.6, (
            f"streamed peak still scales with N: grew {growth_streamed} vs "
            f"materialized growth {growth_materialized}"
        )

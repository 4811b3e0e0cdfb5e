"""Benchmark: the measurement runtime (executors + run cache + streaming).

Records the perf baseline future scale-up PRs are measured against:

* serial vs. process-pool wall time for one small Table-1 row (``sort1``),
* cold-cache vs. warm-cache wall time and the warm run's cache hit rate,
* raw executor throughput on one N x K measurement matrix,
* peak transient memory of a measurement matrix dispatched as one
  default-sized chunk and in small chunks (``Runtime.batch_chunk``),
* end-to-end peak memory of a whole experiment with streamed inputs + a
  capped cache vs. the materialized-list path, at two input counts (the
  streamed peak must stop scaling with N),
* the in-memory footprint of one run-cache entry (the number behind
  ``RunCache.DEFAULT_MAX_ENTRIES``).

The warm-cache run must be decisively faster than the cold run (every
program execution is replaced by a cache lookup); the parallel numbers are
recorded for tracking rather than asserted, because speedup depends on the
host's core count and the benchmark's run-time granularity.  The streaming
comparison asserts at ``REPRO_BENCH_SCALE=large`` that small chunks keep
peak memory decisively below one default-sized chunk (the results are
asserted bit-identical at every scale).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.benchmarks_suite import get_benchmark
from repro.experiments.runner import run_experiment
from repro.runtime import RunCache, Runtime

from conftest import bench_scale, experiment_config

#: Committed small-scale baseline (``BENCH_runtime.json``): bit-exact
#: digests of the deterministic measurement matrix plus the experiment's
#: telemetry counters.  Wall times in it are informational only.
_BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_runtime.json")


def _baseline():
    if bench_scale() != "small" or not os.path.exists(_BASELINE):
        return None
    with open(_BASELINE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _config(executor: str, use_cache: bool = True):
    config = experiment_config()
    config.executor = executor
    config.use_cache = use_cache
    return config


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_experiment_wall_time_by_executor(benchmark, executor):
    """Wall time of the sort1 row under each executor (perf baseline)."""
    config = _config(executor)
    result = benchmark.pedantic(
        run_experiment, args=("sort1", config), rounds=1, iterations=1
    )
    counters = result.runtime_stats["telemetry"]["counters"]
    print(
        f"\n[runtime:{executor}] runs={counters.get('runs_requested', 0)} "
        f"executed={counters.get('runs_executed', 0)} "
        f"hits={counters.get('cache_hits', 0)}"
    )
    assert result.runtime_stats["executor"] == executor
    assert "executor_fallback" not in result.runtime_stats
    baseline = _baseline()
    if baseline is not None:
        # Counters and the headline speedup are deterministic and
        # executor-independent; any drift is a behavior change, not noise.
        expected = baseline["experiment"]
        assert result.mean_speedup("two_level") == expected["two_level_speedup"]
        assert counters.get("runs_requested", 0) == expected["runs_requested"]
        assert counters.get("runs_executed", 0) == expected["runs_executed"]
        assert counters.get("cache_hits", 0) == expected["cache_hits"]


def test_warm_cache_speedup(benchmark):
    """A shared cache makes a repeated row dramatically cheaper."""
    config = _config("serial")
    runtime = Runtime(cache=RunCache())

    cold_start = time.perf_counter()
    run_experiment("sort1", config, runtime=runtime)
    cold_seconds = time.perf_counter() - cold_start
    hits_before = runtime.telemetry.cache_hits
    executed_before = runtime.telemetry.runs_executed

    warm_start = time.perf_counter()
    result = benchmark.pedantic(
        run_experiment,
        args=("sort1", config),
        kwargs={"runtime": runtime},
        rounds=1,
        iterations=1,
    )
    warm_seconds = time.perf_counter() - warm_start

    warm_hits = runtime.telemetry.cache_hits - hits_before
    warm_executed = runtime.telemetry.runs_executed - executed_before
    hit_rate = warm_hits / max(1, warm_hits + warm_executed)
    print(
        f"\n[runtime:cache] cold={cold_seconds:.3f}s warm={warm_seconds:.3f}s "
        f"speedup={cold_seconds / max(warm_seconds, 1e-9):.1f}x "
        f"warm-hit-rate={hit_rate:.1%}"
    )
    runtime.close()
    assert result.test_name == "sort1"
    # The repeat run re-executes nothing and must be decisively faster.
    assert warm_executed == 0
    assert hit_rate == 1.0
    assert warm_seconds < cold_seconds


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_measurement_matrix_throughput(benchmark, executor):
    """Raw N x K measurement throughput per executor (no cache)."""
    variant = get_benchmark("sort1")
    program = variant.benchmark.program
    inputs = variant.benchmark.generate_inputs(24, variant.variant, seed=0)
    import random

    rng = random.Random(0)
    configs = [program.default_configuration()] + [
        program.config_space.sample(rng) for _ in range(3)
    ]
    runtime = Runtime.create(executor=executor, use_cache=False)
    measured = benchmark.pedantic(
        runtime.measure, args=(program, configs, inputs), rounds=1, iterations=1
    )
    runtime.close()
    assert measured["times"].shape == (24, 4)
    baseline = _baseline()
    if baseline is not None:
        # Measured times are deterministic work units, so the matrix is a
        # bit-exact, machine-independent anchor for every executor.
        expected = baseline["matrix"]
        assert _digest(measured["times"]) == expected["times_digest"]
        assert _digest(measured["accuracies"]) == expected["accuracies_digest"]


def test_streaming_peak_memory(benchmark):
    """Peak transient memory of one N x K matrix: one chunk vs small chunks.

    ``batch_chunk=None`` means ``DEFAULT_BATCH_CHUNK`` (4,096), and both
    scales here stay at or below 1,600 runs, so that run dispatches the
    matrix as one chunk.  Without a cache, one chunk holds every pair *and*
    every result (including program outputs) until it completes -- O(N x K)
    transient memory.  Chunks of 32 fold into the output arrays and are
    dropped, so the transient footprint is bounded by the chunk.  Results
    must be bit-identical either way.
    """
    variant = get_benchmark("sort1")
    program = variant.benchmark.program
    n_inputs = 400 if bench_scale() == "large" else 96
    inputs = variant.benchmark.generate_inputs(n_inputs, variant.variant, seed=0)
    import random

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

    # Record the chunked run's wall time as the tracked perf number.
    runtime = Runtime.create(executor="serial", use_cache=False, batch_chunk=32)
    benchmark.pedantic(
        runtime.measure, args=(program, configs, inputs), rounds=1, iterations=1
    )
    runtime.close()

    ratio = full_peak / max(chunk_peak, 1)
    print(
        f"\n[runtime:streaming] n={n_inputs} k={len(configs)} "
        f"full-peak={full_peak / 1e6:.2f}MB chunk-peak={chunk_peak / 1e6:.2f}MB "
        f"ratio={ratio:.1f}x"
    )
    if bench_scale() == "large":
        # At paper-closer sizes the chunked peak must be decisively smaller.
        assert chunk_peak < full_peak * 0.5, (
            f"streaming peak {chunk_peak} not below half of one-chunk "
            f"peak {full_peak}"
        )


def test_streaming_input_peak_memory(benchmark):
    """End-to-end peak memory: streamed inputs + capped cache vs. O(N) lists.

    Runs the whole experiment (input generation, feature extraction,
    autotuning, the measurement matrix, Level 2, evaluation) at two input
    counts, once the legacy way (materialized input list, default chunk,
    unbounded cache) and once fully streamed (lazy ``InputSource``, a
    small ``batch_chunk``, ``cache_max_entries``).  The streamed run's peak must be decisively
    below the materialized run's, and -- the point of the input-streaming
    work -- its *growth* with N must be a fraction of the materialized
    growth: what remains is the <F, T, A, E> datatable itself, not the
    input list or the cache.  Results of both paths are bit-identical
    (``tests/runtime/test_streaming.py`` pins that; this benchmark pins the
    memory shape).
    """
    large = bench_scale() == "large"
    n_small, n_large = (120, 360) if large else (48, 120)

    def config(n_inputs, streamed):
        config = experiment_config()
        config.n_inputs = n_inputs
        config.n_clusters = 3
        config.tuner_generations = 2
        config.tuner_population = 4
        config.tuning_neighbors = 2
        config.max_subsets = 8
        config.executor = "serial"
        config.stream_inputs = streamed
        config.batch_chunk = 32 if streamed else None
        config.cache_max_entries = 256 if streamed else None
        return config

    # Warm up imports (numpy lazily pulls submodules on first use) so the
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

    materialized = {n: traced_peak(n, streamed=False) for n in (n_small, n_large)}
    streamed = {n: traced_peak(n, streamed=True) for n in (n_small, n_large)}

    benchmark.pedantic(
        run_experiment,
        args=("sort1", config(n_small, streamed=True)),
        rounds=1,
        iterations=1,
    )

    growth_materialized = materialized[n_large] - materialized[n_small]
    growth_streamed = streamed[n_large] - streamed[n_small]
    print(
        f"\n[runtime:streaming-inputs] n={n_small}->{n_large} "
        f"materialized={materialized[n_small] / 1e6:.2f}->"
        f"{materialized[n_large] / 1e6:.2f}MB "
        f"streamed={streamed[n_small] / 1e6:.2f}->"
        f"{streamed[n_large] / 1e6:.2f}MB "
        f"ratio@{n_large}={materialized[n_large] / max(streamed[n_large], 1):.2f}x"
    )
    if large:
        assert streamed[n_large] < materialized[n_large] * 0.65, (
            f"streamed peak {streamed[n_large]} not decisively below "
            f"materialized peak {materialized[n_large]}"
        )
        assert growth_streamed < growth_materialized * 0.6, (
            f"streamed peak still scales with N: grew {growth_streamed} vs "
            f"materialized growth {growth_materialized}"
        )


def test_run_cache_entry_footprint(benchmark):
    """Traced bytes per in-memory run-cache entry (key + stripped result).

    This is the number ``RunCache.DEFAULT_MAX_ENTRIES`` is derived from:
    ~450 B/entry means the default 100k-entry cap bounds the in-memory
    cache near 45 MB.  The assertion is a loose ceiling so a regression
    that bloats entries (say, accidentally caching outputs) fails loudly.
    """
    from repro.lang.program import RunResult

    n = 20_000

    def fill():
        cache = RunCache()
        tracemalloc.start()
        try:
            for i in range(n):
                cache.put(
                    f"prog:{i:016x}:{i:016x}:{i:016x}",
                    RunResult(output=None, time=float(i), accuracy=1.0),
                    has_output=False,
                )
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return current / n

    per_entry = benchmark.pedantic(fill, rounds=1, iterations=1)
    capped_mb = per_entry * RunCache.DEFAULT_MAX_ENTRIES / 1e6
    print(
        f"\n[runtime:cache-entry] {per_entry:.0f} B/entry, default cap "
        f"{RunCache.DEFAULT_MAX_ENTRIES} entries = {capped_mb:.0f} MB"
    )
    assert per_entry < 1500, f"run-cache entries ballooned to {per_entry:.0f} B"

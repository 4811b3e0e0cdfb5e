"""Benchmark: the parallel Level-2 candidate search.

Records the serial-vs-parallel ``level2.train`` baseline for the
generalized task runtime: the same feature-subset x classifier-zoo search
on a stock-suite (``sort1``) dataset, carried serially and by a 4-worker
process pool.

On hosts with >= 4 cores the parallel search must be at least 2x faster
than the serial one; on smaller hosts the numbers are recorded without the
assertion (a 1-core container cannot demonstrate parallel speedup).  The
selected classifier must be identical either way -- the speedup is never
allowed to buy a different answer.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.benchmarks_suite import get_benchmark
from repro.core.level1 import Level1Config, run_level1
from repro.core.level2 import Level2Config, run_level2
from repro.runtime import Runtime

from conftest import bench_scale

#: Workers used for the parallel measurement (the baseline's fixed point).
WORKERS = 4

#: Committed small-scale baseline (``BENCH_level2.json``): the selected
#: classifier, its cost, and the candidate count are deterministic anchors;
#: the walls in it are informational only.
_BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_level2.json")


def _baseline():
    if bench_scale() != "small" or not os.path.exists(_BASELINE):
        return None
    with open(_BASELINE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _level2_config() -> Level2Config:
    max_subsets = 128 if bench_scale() == "large" else 64
    return Level2Config(max_subsets=max_subsets, seed=0)


@pytest.fixture(scope="module")
def sort1_dataset():
    """A stock-suite dataset sized so Level-2 training dominates."""
    n_inputs = 320 if bench_scale() == "large" else 160
    variant = get_benchmark("sort1")
    inputs = variant.benchmark.generate_inputs(n_inputs, variant.variant, seed=0)
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
    half = n_inputs // 2
    return level1.dataset, range(half), range(half, n_inputs)


def test_level2_train_speedup_at_4_workers(benchmark, sort1_dataset):
    """Serial vs process-pool wall time of the Level-2 candidate search."""
    dataset, train_rows, test_rows = sort1_dataset
    config = _level2_config()

    serial_start = time.perf_counter()
    serial_result = run_level2(dataset, train_rows, test_rows, config=config)
    serial_seconds = time.perf_counter() - serial_start

    runtime = Runtime.create(executor="process", workers=WORKERS, use_cache=False)
    try:
        parallel_result = benchmark.pedantic(
            run_level2,
            args=(dataset, train_rows, test_rows),
            kwargs={"config": config, "runtime": runtime},
            rounds=1,
            iterations=1,
        )
        parallel_seconds = runtime.telemetry.phases["level2.candidates"].seconds
        fallback = runtime.stats().get("executor_fallback")
    finally:
        runtime.close()

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    print(
        f"\n[level2.train] serial={serial_seconds:.3f}s "
        f"process:{WORKERS}={parallel_seconds:.3f}s speedup={speedup:.2f}x "
        f"candidates={len(serial_result.classifiers)} cores={os.cpu_count()}"
    )

    baseline = _baseline()
    if baseline is not None:
        expected = baseline["search"]
        assert serial_result.production.classifier.name == (
            expected["production_classifier"]
        )
        assert serial_result.production.performance_cost == (
            expected["performance_cost"]
        )
        assert len(serial_result.classifiers) == expected["n_candidates"]

    # Parallelism must never change the answer.
    assert fallback is None
    assert (
        parallel_result.production.classifier.name
        == serial_result.production.classifier.name
    )
    assert (
        parallel_result.production.performance_cost
        == serial_result.production.performance_cost
    )
    if (os.cpu_count() or 1) >= WORKERS:
        assert speedup >= 2.0, (
            f"level2.train speedup at {WORKERS} workers regressed to {speedup:.2f}x"
        )

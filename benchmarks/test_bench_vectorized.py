"""Benchmark: the vectorized measurement/feature/scoring hot paths.

``BENCH_vectorized.json`` is the committed record of the vectorization
work: min-of-3 end-to-end walls at ``REPRO_BENCH_SCALE=large`` from the
pre-change tree (``baseline_commit``) and from this tree, the >= 5x
speedup between them, and the bit-identical ``two_level_speedup`` both
trees report (the optimization changes no measured value).  The "before"
profile that motivated the work is ``benchmarks/PROFILE_vectorized.md``.

This file keeps that record honest on every run:

* the committed large-scale speedup must stay >= 5x (the ISSUE's bar);
* the experiment re-run here must reproduce the committed
  ``two_level_speedup`` for the active scale, bit for bit -- a wrong
  value means vectorization bought speed with a different answer;
* serial and process executors must produce bit-identical measurement
  matrices (the process run ships its leases' results as float64 blocks);
* the wall time must stay within ``_TOLERANCE``x of the committed wall
  for the active scale -- generous enough for CI machine variation, far
  below the ~6.5x cliff a de-vectorization regression would cause.
"""

from __future__ import annotations

import json
import os
import random
import time

import numpy as np

from repro.benchmarks_suite import get_benchmark
from repro.experiments.runner import run_experiment
from repro.runtime import Runtime

from conftest import bench_scale, experiment_config

_BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_vectorized.json")

#: Allowed slowdown vs. the committed wall before the gate trips.
_TOLERANCE = 3.0


def _baseline():
    if not os.path.exists(_BASELINE):
        return None
    with open(_BASELINE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_committed_speedup_meets_bar():
    """The committed large-scale record itself must show >= 5x."""
    baseline = _baseline()
    assert baseline is not None, "BENCH_vectorized.json must be committed"
    large = baseline["large"]
    assert large["speedup"] >= 5.0
    measured = large["baseline_min_seconds"] / large["vectorized_min_seconds"]
    assert measured >= 5.0, f"recorded walls only show {measured:.2f}x"


def test_vectorized_experiment_wall_and_answer(benchmark):
    """End-to-end wall with vectorized paths; answer pinned to the record."""
    config = experiment_config()
    config.use_cache = False

    start = time.perf_counter()
    result = benchmark.pedantic(
        run_experiment, args=("sort1", config), rounds=1, iterations=1
    )
    wall = time.perf_counter() - start

    baseline = _baseline()
    recorded = baseline[bench_scale()] if baseline else None
    print(
        f"\n[vectorized:{bench_scale()}] wall={wall:.3f}s "
        f"two-level={result.mean_speedup('two_level'):.4f}x "
        f"committed-min={recorded['vectorized_min_seconds'] if recorded else '-'}s"
    )
    if recorded is None:
        return
    # Bit-exact answer anchor: speed must never buy a different result.
    assert result.mean_speedup("two_level") == recorded["two_level_speedup"]
    # Regression tolerance gate on the wall itself.
    ceiling = recorded["vectorized_min_seconds"] * _TOLERANCE
    assert wall <= ceiling, (
        f"vectorized wall {wall:.3f}s exceeds {_TOLERANCE}x the committed "
        f"{recorded['vectorized_min_seconds']}s -- hot paths regressed"
    )


def test_executor_matrix_parity(benchmark):
    """Serial and process matrices are bit-identical.

    Both take the one pair dispatch; the process run's leases answer in
    float64 blocks.  The two must agree bitwise.
    """
    variant = get_benchmark("sort1")
    program = variant.benchmark.program
    n_inputs = 48 if bench_scale() == "large" else 24
    inputs = variant.benchmark.generate_inputs(n_inputs, variant.variant, seed=0)
    rng = random.Random(0)
    configs = [program.default_configuration()] + [
        program.config_space.sample(rng) for _ in range(3)
    ]

    def measure(executor):
        runtime = Runtime.create(executor=executor, use_cache=False)
        try:
            measured = runtime.measure(program, configs, inputs)
            fallback = runtime.stats().get("executor_fallback")
        finally:
            runtime.close()
        return measured, fallback

    serial, _ = measure("serial")
    process, process_fallback = measure("process")

    runtime = Runtime.create(executor="serial", use_cache=False)
    benchmark.pedantic(
        runtime.measure, args=(program, configs, inputs), rounds=1, iterations=1
    )
    runtime.close()

    assert process_fallback is None
    np.testing.assert_array_equal(serial["times"], process["times"])
    np.testing.assert_array_equal(serial["accuracies"], process["accuracies"])

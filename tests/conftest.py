"""Shared fixtures for the test suite.

The heavier fixtures (trained pipelines, experiment results) are session
scoped so the integration-style tests across modules reuse one small trained
system instead of re-training per test.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.benchmarks_suite import get_benchmark
from repro.core.level1 import Level1Config
from repro.core.level2 import Level2Config
from repro.core.pipeline import InputAwareLearning


@pytest.fixture
def rng() -> random.Random:
    """A deterministic python RNG."""
    return random.Random(1234)


@pytest.fixture
def np_rng() -> np.random.Generator:
    """A deterministic numpy RNG."""
    return np.random.default_rng(1234)


def small_training_run(test_name: str, n_inputs: int = 36, n_clusters: int = 4, seed: int = 0):
    """Train a deliberately tiny two-level system for integration tests."""
    variant = get_benchmark(test_name)
    inputs = variant.benchmark.generate_inputs(n_inputs, variant.variant, seed=seed)
    learner = InputAwareLearning(
        level1_config=Level1Config(
            n_clusters=n_clusters,
            tuner_generations=3,
            tuner_population=6,
            tuning_neighbors=2,
            seed=seed,
        ),
        level2_config=Level2Config(max_subsets=16, seed=seed),
        test_fraction=0.5,
        seed=seed,
    )
    return variant, inputs, learner.fit(variant.benchmark.program, inputs)


@pytest.fixture(scope="session")
def sort_training():
    """A small trained system for the sort benchmark (session scoped)."""
    variant, inputs, training = small_training_run("sort2", n_inputs=36)
    return {"variant": variant, "inputs": inputs, "training": training}


@pytest.fixture(scope="session")
def binpacking_training():
    """A small trained system for the bin-packing benchmark (session scoped)."""
    variant, inputs, training = small_training_run("binpacking", n_inputs=30)
    return {"variant": variant, "inputs": inputs, "training": training}


# The serving suites bind real TCP sockets (always on OS-assigned
# ephemeral ports -- never fixed numbers).  No test is rerun on failure:
# a refused connect is retried where it happens, in ``ServingClient``'s
# connect loop, and tests poll for server state with bounded waits, so a
# test failure always means a real bug.

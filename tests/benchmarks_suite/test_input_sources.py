"""Per-index generator equivalence across all benchmarks.

The lazy input pipeline rests on one contract: for every benchmark and
variant, ``input_source(n, variant, seed)`` materializes the *same* inputs
as the legacy ``generate_inputs`` list -- per index, in any access order,
chunked or not.  Inputs are compared by their content digest
(:func:`repro.runtime.keys.input_key`), the same digest the run cache keys
on, so equality here is exactly the equality that makes streamed and
materialized experiments share cache entries bit-for-bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchmarks_suite import get_benchmark
from repro.benchmarks_suite.base import registry
from repro.core.inputs import GeneratedInputSource
from repro.runtime.keys import input_key

ALL_TESTS = sorted(registry())

#: Several (n, seed) pairs, including n=0 and a non-trivial seed.
SIZE_SEED_PAIRS = [(0, 0), (5, 0), (9, 3), (12, 41)]


def digests(inputs):
    return [input_key(x) for x in inputs]


@pytest.mark.parametrize("test_name", ALL_TESTS)
@pytest.mark.parametrize("n,seed", SIZE_SEED_PAIRS)
def test_source_equals_generate_inputs(test_name, n, seed):
    """Lazy iteration of the source equals the materialized list."""
    variant = get_benchmark(test_name)
    source = variant.benchmark.input_source(n, variant.variant, seed=seed)
    legacy = variant.benchmark.generate_inputs(n, variant.variant, seed=seed)
    assert len(source) == len(legacy) == n
    assert digests(source) == digests(legacy)


@pytest.mark.parametrize("test_name", ALL_TESTS)
def test_sources_are_per_index_generators(test_name):
    """Every built-in population supports true per-index generation."""
    variant = get_benchmark(test_name)
    source = variant.benchmark.input_source(4, variant.variant, seed=0)
    assert isinstance(source, GeneratedInputSource)


@pytest.mark.parametrize("test_name", ALL_TESTS)
def test_single_index_needs_no_predecessors(test_name):
    """Input i alone equals input i of the full population."""
    variant = get_benchmark(test_name)
    full = variant.benchmark.generate_inputs(8, variant.variant, seed=5)
    source = variant.benchmark.input_source(8, variant.variant, seed=5)
    for i in (7, 3, 0):  # deliberately out of order
        assert input_key(source[i]) == input_key(full[i])


@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    test_name=st.sampled_from(ALL_TESTS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    order=st.permutations(list(range(6))),
)
def test_access_order_never_changes_an_input(test_name, seed, order):
    """Property: source[i] is independent of which indices were read before.

    A fresh source is read in a random permutation; every input must equal
    the in-order materialization of another fresh source.  This is the
    property that lets chunked, parallel, and repeated passes over a
    population agree bit-for-bit.
    """
    variant = get_benchmark(test_name)
    reference = digests(
        variant.benchmark.input_source(6, variant.variant, seed=seed)
    )
    shuffled = variant.benchmark.input_source(6, variant.variant, seed=seed)
    for i in order:
        assert input_key(shuffled[i]) == reference[i]


@pytest.mark.parametrize("test_name", ALL_TESTS)
def test_rematerialization_is_stable(test_name):
    """Reading the same index twice yields content-identical objects."""
    variant = get_benchmark(test_name)
    source = variant.benchmark.input_source(3, variant.variant, seed=11)
    first, second = source[2], source[2]
    assert first is not second or isinstance(first, (int, float, str))
    assert input_key(first) == input_key(second)


def test_feature_vectors_match_between_paths():
    """End-to-end spot check: features extracted from streamed inputs equal
    those from the materialized list (the arrays Level 1 actually builds)."""
    variant = get_benchmark("sort1")
    program = variant.benchmark.program
    source = variant.benchmark.input_source(6, variant.variant, seed=2)
    legacy = variant.benchmark.generate_inputs(6, variant.variant, seed=2)
    for streamed, materialized in zip(source, legacy):
        vs, cs = program.features.extract_vector(streamed)
        vm, cm = program.features.extract_vector(materialized)
        np.testing.assert_array_equal(vs, vm)
        np.testing.assert_array_equal(cs, cm)

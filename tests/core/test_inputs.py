"""Unit tests for the lazy input-source layer (repro.core.inputs)."""

import pickle

import numpy as np
import pytest

from repro.benchmarks_suite import get_benchmark
from repro.core.inputs import (
    GeneratedInputSource,
    InputSource,
    ObservedInputSource,
    per_index_rng,
)


def squares(index, seed):
    return index * index + seed


class TestPerIndexRng:
    def test_deterministic_per_triple(self):
        a = per_index_rng(3, 7, "bench", "synthetic").uniform(size=4)
        b = per_index_rng(3, 7, "bench", "synthetic").uniform(size=4)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_across_indices_and_seeds(self):
        base = per_index_rng(0, 0, "bench").uniform(size=4)
        other_index = per_index_rng(0, 1, "bench").uniform(size=4)
        other_seed = per_index_rng(1, 0, "bench").uniform(size=4)
        assert not np.array_equal(base, other_index)
        assert not np.array_equal(base, other_seed)

    def test_namespace_separates_populations(self):
        a = per_index_rng(0, 0, "sort", "synthetic").uniform(size=4)
        b = per_index_rng(0, 0, "sort", "real_world").uniform(size=4)
        assert not np.array_equal(a, b)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            per_index_rng(0, -1, "bench")


class TestGeneratedInputSource:
    def test_length_and_indexing(self):
        source = GeneratedInputSource(5, seed=2, item=squares)
        assert len(source) == 5
        assert source[0] == 2
        assert source[4] == 18
        assert source[-1] == 18  # negative indices resolve like a list

    def test_out_of_range_rejected(self):
        source = GeneratedInputSource(3, seed=0, item=squares)
        with pytest.raises(IndexError):
            source[3]
        with pytest.raises(IndexError):
            source[-4]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            GeneratedInputSource(-1, seed=0, item=squares)

    def test_iteration_matches_materialized(self):
        source = GeneratedInputSource(6, seed=1, item=squares)
        assert list(source) == source.materialized() == [squares(i, 1) for i in range(6)]

    def test_slice_returns_lazy_view(self):
        source = GeneratedInputSource(10, seed=0, item=squares)
        view = source[2:8:2]
        assert isinstance(view, InputSource)
        assert list(view) == [4, 16, 36]

    def test_is_a_sequence(self):
        source = GeneratedInputSource(4, seed=0, item=squares)
        assert 9 in source
        assert source.index(4) == 2


class TestIteration:
    def test_inputs_are_materialized_lazily(self):
        calls = []

        def tracking(index, seed):
            calls.append(index)
            return index

        source = GeneratedInputSource(6, seed=0, item=tracking)
        iterator = iter(source)
        next(iterator)
        assert calls == [0]  # later inputs not generated yet
        next(iterator)
        assert calls == [0, 1]


class TestSelect:
    def test_select_is_lazy_and_ordered(self):
        calls = []

        def tracking(index, seed):
            calls.append(index)
            return index * 10

        source = GeneratedInputSource(100, seed=0, item=tracking)
        view = source.select([5, 2, 7])
        assert calls == []  # selection itself generates nothing
        assert len(view) == 3
        assert list(view) == [50, 20, 70]

    def test_select_of_select_composes(self):
        source = GeneratedInputSource(10, seed=0, item=squares)
        view = source.select(range(2, 9)).select([0, 3])
        assert list(view) == [squares(2, 0), squares(5, 0)]


class TestObservedInputSource:
    def test_observer_sees_every_materialization(self):
        seen = []
        source = ObservedInputSource(
            GeneratedInputSource(4, seed=0, item=squares), seen.append
        )
        assert list(source) == [0, 1, 4, 9]
        assert len(seen) == 4
        assert all(s >= 0 for s in seen)

    def test_delegates_length_and_select(self):
        seen = []
        source = ObservedInputSource(
            GeneratedInputSource(10, seed=0, item=squares), seen.append
        )
        view = source.select([3, 1])
        assert len(source) == 10
        assert list(view) == [9, 1]
        assert len(seen) == 2  # selections still route through the observer

    def test_observed_source_pickles_without_observer(self):
        variant = get_benchmark("sort2")
        source = variant.benchmark.input_source(4, variant.variant, seed=0)
        seen = []
        observed = ObservedInputSource(source, seen.append)
        clone = pickle.loads(pickle.dumps(observed))
        # Identical materializations; the clone's observer is silent.
        np.testing.assert_array_equal(observed.materialize(2), clone.materialize(2))
        assert len(seen) == 1  # only the original observed

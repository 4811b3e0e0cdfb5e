"""Tests for train/test splitting."""

import numpy as np
import pytest

from repro.ml.crossval import train_test_split


class TestTrainTestSplit:
    def test_partition_is_disjoint_and_complete(self):
        train, test = train_test_split(100, test_fraction=0.5, random_state=0)
        combined = np.concatenate([train, test])
        assert len(set(combined.tolist())) == 100
        assert set(combined.tolist()) == set(range(100))

    def test_fraction_respected(self):
        train, test = train_test_split(100, test_fraction=0.25, random_state=0)
        assert len(test) == 25
        assert len(train) == 75

    def test_deterministic_given_seed(self):
        first = train_test_split(50, random_state=7)
        second = train_test_split(50, random_state=7)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_both_sides_non_empty_for_extreme_fractions(self):
        train, test = train_test_split(10, test_fraction=0.01)
        assert len(test) >= 1 and len(train) >= 1
        train, test = train_test_split(10, test_fraction=0.99)
        assert len(test) <= 9 and len(train) >= 1

    def test_bad_args(self):
        with pytest.raises(ValueError):
            train_test_split(10, test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(1)

"""Tests for the distribution-shift statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.stats import (
    ks_statistic,
    population_stability_index,
    quantile_bin_edges,
)


class TestQuantileBinEdges:
    def test_interior_edges_for_uniform_grid(self):
        edges = quantile_bin_edges(np.arange(100.0), bins=4)
        assert len(edges) == 3
        assert np.all(np.diff(edges) > 0)

    def test_constant_reference_keeps_single_edge(self):
        edges = quantile_bin_edges([5.0] * 20, bins=10)
        assert edges.tolist() == [5.0]

    def test_errors(self):
        with pytest.raises(ValueError):
            quantile_bin_edges([], bins=4)
        with pytest.raises(ValueError):
            quantile_bin_edges([1.0, 2.0], bins=1)


class TestPopulationStabilityIndex:
    def test_identical_samples_score_zero(self):
        reference = np.linspace(0.0, 1.0, 200)
        assert population_stability_index(reference, reference) == pytest.approx(0.0)

    def test_shifted_sample_scores_high(self):
        rng = np.random.default_rng(0)
        reference = rng.normal(0.0, 1.0, size=500)
        shifted = rng.normal(4.0, 1.0, size=500)
        assert population_stability_index(reference, shifted) > 1.0

    def test_same_distribution_scores_low(self):
        rng = np.random.default_rng(1)
        reference = rng.normal(0.0, 1.0, size=500)
        live = rng.normal(0.0, 1.0, size=500)
        assert population_stability_index(reference, live) < 0.1

    def test_constant_feature_still_at_constant_reads_zero(self):
        assert population_stability_index([3.0] * 50, [3.0] * 50) == pytest.approx(0.0)

    def test_constant_feature_departing_reads_high(self):
        assert population_stability_index([3.0] * 50, [9.0] * 50) > 1.0

    def test_empty_live_raises(self):
        with pytest.raises(ValueError):
            population_stability_index([1.0, 2.0], [])


class TestKsStatistic:
    def test_identical_samples_score_zero(self):
        sample = np.linspace(0.0, 1.0, 100)
        assert ks_statistic(sample, sample) == pytest.approx(0.0)

    def test_disjoint_supports_score_one(self):
        assert ks_statistic([1.0, 2.0, 3.0], [10.0, 11.0]) == pytest.approx(1.0)

    def test_known_half_overlap(self):
        # ECDFs diverge most at 2.5: 1.0 vs 0.5.
        assert ks_statistic([1.0, 2.0], [2.0, 3.0]) == pytest.approx(0.5)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            ks_statistic([], [1.0])


@settings(max_examples=50, deadline=None)
@given(
    reference=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=60),
    live=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60),
)
def test_property_drift_stats_ranges(reference, live):
    """PSI is non-negative and finite; KS lives in [0, 1]."""
    psi = population_stability_index(reference, live)
    assert np.isfinite(psi)
    assert psi >= 0.0
    ks = ks_statistic(reference, live)
    assert 0.0 <= ks <= 1.0


@settings(max_examples=50, deadline=None)
@given(sample=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60))
def test_property_drift_stats_identity(sample):
    """Any sample compared against itself shows no drift."""
    assert population_stability_index(sample, sample) == pytest.approx(0.0, abs=1e-9)
    assert ks_statistic(sample, sample) == 0.0

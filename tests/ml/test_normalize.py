"""Tests for feature normalizers."""

import numpy as np
import pytest

from repro.ml.normalize import ZScoreNormalizer


class TestZScoreNormalizer:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 4))
        Z = ZScoreNormalizer().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_maps_to_zero(self):
        X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        Z = ZScoreNormalizer().fit_transform(X)
        assert np.allclose(Z[:, 0], 0.0)

    def test_transform_uses_training_statistics(self):
        train = np.array([[0.0], [10.0]])
        normalizer = ZScoreNormalizer().fit(train)
        assert normalizer.transform(np.array([[5.0]]))[0, 0] == pytest.approx(0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ZScoreNormalizer().transform(np.ones((2, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            ZScoreNormalizer().fit(np.ones(5))

"""Feature normalization.

Step 2 of Level 1 ("Input Clustering") normalizes input feature vectors
"to avoid biases imposed by the different value scales in different
dimensions" before running K-means.  The pipeline standardizes each column
to zero mean and unit variance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class ZScoreNormalizer:
    """Standardize columns to zero mean and unit variance.

    Constant columns (zero variance) are mapped to zero rather than dividing
    by zero; this happens routinely for features that are identical across a
    benchmark's input set (e.g. "zeros" on dense matrices).
    """

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.std_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray) -> "ZScoreNormalizer":
        """Learn per-column mean and standard deviation."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"expected 2-D array, got shape {X.shape}")
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        self.std_ = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Apply the learned standardization."""
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("normalizer is not fitted")
        X = np.asarray(X, dtype=float)
        return (X - self.mean_) / self.std_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(X).transform(X)

"""Train/test splitting and stratified k-fold cross-validation.

The paper trains its exhaustive-feature-subset classifiers with 10-fold
cross-validation ("to avoid any learning to the data") and evaluates the
whole system on a held-out half of the inputs.  These utilities provide the
splits, with stratification by label so that rare landmark classes appear in
every fold whenever possible.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np


def train_test_split(
    n_samples: int,
    test_fraction: float = 0.5,
    random_state: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shuffle indices 0..n-1 and split them into (train, test) index arrays.

    Args:
        n_samples: total number of samples.
        test_fraction: fraction of samples assigned to the test set.
        random_state: seed for reproducibility.

    Raises:
        ValueError: if ``test_fraction`` is outside (0, 1) or there are not
            enough samples to populate both sides.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    if n_samples < 2:
        raise ValueError("need at least 2 samples to split")
    rng = np.random.default_rng(random_state)
    permutation = rng.permutation(n_samples)
    n_test = int(round(n_samples * test_fraction))
    n_test = min(max(n_test, 1), n_samples - 1)
    test_indices = np.sort(permutation[:n_test])
    train_indices = np.sort(permutation[n_test:])
    return train_indices, test_indices


class StratifiedKFold:
    """Stratified k-fold splitter.

    Samples of each class are dealt round-robin into folds so every fold's
    class distribution approximates the global one.  Classes with fewer
    members than folds simply appear in a subset of the folds.

    Args:
        n_splits: number of folds.
        shuffle: whether to shuffle within each class before dealing.
        random_state: seed used when shuffling.
    """

    def __init__(
        self,
        n_splits: int = 10,
        shuffle: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, y: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield (train_indices, test_indices) pairs, one per fold."""
        y = np.asarray(y, dtype=int)
        if y.ndim != 1:
            raise ValueError("y must be 1-D")
        n_samples = y.shape[0]
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot make {self.n_splits} folds from {n_samples} samples"
            )
        rng = np.random.default_rng(self.random_state)

        fold_assignment = np.empty(n_samples, dtype=int)
        next_fold = 0
        for label in np.unique(y):
            members = np.flatnonzero(y == label)
            if self.shuffle:
                rng.shuffle(members)
            for offset, index in enumerate(members):
                fold_assignment[index] = (next_fold + offset) % self.n_splits
            next_fold = (next_fold + members.shape[0]) % self.n_splits

        all_indices = np.arange(n_samples)
        for fold in range(self.n_splits):
            test_mask = fold_assignment == fold
            if not test_mask.any():
                continue
            yield all_indices[~test_mask], all_indices[test_mask]


def cross_val_accuracy(classifier_factory, X: np.ndarray, y: np.ndarray,
                       n_splits: int = 10, random_state: Optional[int] = None) -> List[float]:
    """Train/evaluate a classifier across stratified folds and return accuracies.

    Args:
        classifier_factory: zero-argument callable returning a fresh unfitted
            classifier exposing ``fit(X, y)`` and ``predict(X)``.
        X: feature matrix.
        y: labels.
        n_splits: number of folds (reduced automatically for tiny datasets).
        random_state: seed for the fold assignment.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    effective_splits = min(n_splits, max(2, min(np.bincount(y).max(), X.shape[0] // 2)))
    splitter = StratifiedKFold(n_splits=effective_splits, random_state=random_state)
    accuracies: List[float] = []
    for train_indices, test_indices in splitter.split(y):
        model = classifier_factory()
        model.fit(X[train_indices], y[train_indices])
        predictions = model.predict(X[test_indices])
        accuracies.append(float(np.mean(predictions == y[test_indices])))
    return accuracies

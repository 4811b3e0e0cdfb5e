"""Train/test splitting.

The paper evaluates the whole system on a held-out half of the inputs;
:func:`train_test_split` draws that split, and the adaptation retrainer
draws the same kind of split over the inputs it retrains on.
"""

from __future__ import annotations

from typing import Optional, Tuple

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

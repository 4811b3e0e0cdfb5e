"""Input generators for the Sort benchmark.

Two populations, mirroring the paper's two Sort tests:

* ``synthetic`` (sort2) -- a mixture of generator families deliberately
  spanning the feature space: uniform random, almost-sorted, reverse-sorted,
  heavy-duplication, narrow-range, sawtooth, and Gaussian-mixture lists of
  varying length.
* ``real_world`` (sort1) -- the paper sorted keys from the Central Contractor
  Registration FOIA extract.  That dataset is no longer distributed, so this
  generator synthesizes lists with the statistical character of such
  registry extracts: long runs of already-sorted blocks (data exported from
  sorted tables), heavy duplication (categorical codes, repeated ZIP codes),
  and skewed magnitudes.  See README.md, "Substitutions", item 2.

Generation is **per-index**: ``synthetic_item(i, seed)`` /
``real_world_item(i, seed)`` produce input *i* from an RNG seeded by
(population, seed, i), so any input is derivable without generating
0..i-1 -- the property the lazy ``InputSource`` pipeline relies on.  The
whole-list ``generate_*`` functions are thin loops over the item functions.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.core.inputs import per_index_rng

#: Input length bounds.  Kept modest so the full experiment matrix
#: (inputs x landmarks) runs in minutes while still spanning a 32x range,
#: enough for size-dependent selector behaviour to matter.
MIN_LENGTH = 64
MAX_LENGTH = 2048


def _random_length(rng: np.random.Generator) -> int:
    """Log-uniform length in [MIN_LENGTH, MAX_LENGTH]."""
    log_low, log_high = np.log(MIN_LENGTH), np.log(MAX_LENGTH)
    return int(np.exp(rng.uniform(log_low, log_high)))


def uniform_random(rng: np.random.Generator) -> np.ndarray:
    """I.i.d. uniform doubles: quicksort/mergesort territory."""
    return rng.uniform(0.0, 1e6, size=_random_length(rng))


def almost_sorted(rng: np.random.Generator) -> np.ndarray:
    """Sorted data with a small fraction of random swaps: insertion-sort heaven."""
    data = np.sort(rng.uniform(0.0, 1e6, size=_random_length(rng)))
    n_swaps = max(1, int(0.01 * len(data)))
    for _ in range(n_swaps):
        i, j = rng.integers(0, len(data), size=2)
        data[i], data[j] = data[j], data[i]
    return data


def sorted_ascending(rng: np.random.Generator) -> np.ndarray:
    """Fully sorted input: pathological for first-element-pivot quicksort."""
    return np.sort(rng.uniform(0.0, 1e6, size=_random_length(rng)))


def reverse_sorted(rng: np.random.Generator) -> np.ndarray:
    """Strictly decreasing input: worst case for insertion sort."""
    return np.sort(rng.uniform(0.0, 1e6, size=_random_length(rng)))[::-1].copy()


def heavy_duplicates(rng: np.random.Generator) -> np.ndarray:
    """Few distinct values, many repeats: radix-sort friendly."""
    n = _random_length(rng)
    n_distinct = int(rng.integers(2, 17))
    values = rng.uniform(0.0, 1e6, size=n_distinct)
    return rng.choice(values, size=n)


def narrow_range(rng: np.random.Generator) -> np.ndarray:
    """Values confined to a tiny interval (quantized sensor readings)."""
    n = _random_length(rng)
    center = rng.uniform(0.0, 1e6)
    return center + rng.integers(0, 64, size=n).astype(float)


def sawtooth(rng: np.random.Generator) -> np.ndarray:
    """Concatenation of several sorted runs (merge-sort friendly)."""
    n = _random_length(rng)
    n_runs = int(rng.integers(2, 9))
    pieces = []
    remaining = n
    for i in range(n_runs):
        size = remaining if i == n_runs - 1 else max(1, remaining // (n_runs - i))
        pieces.append(np.sort(rng.uniform(0.0, 1e6, size=size)))
        remaining -= size
        if remaining <= 0:
            break
    return np.concatenate(pieces)


def gaussian_mixture(rng: np.random.Generator) -> np.ndarray:
    """Clustered magnitudes with outliers."""
    n = _random_length(rng)
    n_components = int(rng.integers(1, 5))
    assignments = rng.integers(0, n_components, size=n)
    centers = rng.uniform(0.0, 1e6, size=n_components)
    scales = rng.uniform(1.0, 1e4, size=n_components)
    return centers[assignments] + rng.normal(0.0, 1.0, size=n) * scales[assignments]


SYNTHETIC_FAMILIES: List[Callable[[np.random.Generator], np.ndarray]] = [
    uniform_random,
    almost_sorted,
    sorted_ascending,
    reverse_sorted,
    heavy_duplicates,
    narrow_range,
    sawtooth,
    gaussian_mixture,
]


def synthetic_item(index: int, seed: int = 0) -> np.ndarray:
    """Input ``index`` of the sort2 population (pure in (index, seed))."""
    rng = per_index_rng(seed, index, "sort", "synthetic")
    family = SYNTHETIC_FAMILIES[index % len(SYNTHETIC_FAMILIES)]
    return family(rng).astype(float)


def generate_synthetic(n: int, seed: int = 0) -> List[np.ndarray]:
    """The sort2 population: an even mixture over all synthetic families."""
    return [synthetic_item(i, seed) for i in range(n)]


def real_world_item(index: int, seed: int = 0) -> np.ndarray:
    """Input ``index`` of the sort1 population: one registry-extract-like list.

    Built from sorted blocks (exports of pre-sorted tables) with heavy
    duplication of categorical keys and occasional unsorted appendices,
    which is the regime where adaptive selection between insertion sort,
    merge sort, and radix sort pays off.
    """
    rng = per_index_rng(seed, index, "sort", "real_world")
    n_total = _random_length(rng)
    blocks: List[np.ndarray] = []
    remaining = n_total
    while remaining > 0:
        block_size = int(min(remaining, rng.integers(16, 257)))
        # Categorical-ish keys: a small code space scaled up, then sorted
        # within the block with probability 0.7 (already-sorted exports).
        code_space = int(rng.integers(8, 513))
        block = rng.integers(0, code_space, size=block_size).astype(float)
        block *= float(rng.uniform(1.0, 1e4))
        if rng.random() < 0.7:
            block = np.sort(block)
        blocks.append(block)
        remaining -= block_size
    return np.concatenate(blocks)


def generate_real_world(n: int, seed: int = 0) -> List[np.ndarray]:
    """The sort1 population: registry-extract-like lists."""
    return [real_world_item(i, seed) for i in range(n)]

"""Input generators for the Clustering benchmark.

* ``synthetic`` (clustering2) -- Gaussian blob mixtures with varying numbers
  of true clusters, spreads, and point counts, plus uniform-noise and
  ring-shaped populations, spanning the feature space.
* ``real_world`` (clustering1) -- the paper clustered the UCI Poker Hand
  dataset.  That dataset is categorical (ranks and suits), so points fall on
  a small discrete lattice with massive duplication; this generator produces
  lattice-valued 2-D points with skewed occupancy to mimic that structure.
  See README.md, "Substitutions", item 2.

Inputs are :class:`ClusteringInput` objects (defined in ``benchmark.py``)
carrying the point array, the generator's true cluster count when known, and
a cache slot for the canonical clustering used by the accuracy metric.

Generation is per-index (``synthetic_item`` / ``real_world_item``): input
*i* draws from its own (population, seed, i)-seeded RNG, so the lazy
``InputSource`` pipeline can materialize any input without the rest.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.benchmarks_suite.clustering.benchmark import ClusteringInput
from repro.core.inputs import per_index_rng

MIN_POINTS = 80
MAX_POINTS = 600


def _random_count(rng: np.random.Generator) -> int:
    return int(rng.integers(MIN_POINTS, MAX_POINTS + 1))


def _blobs(rng: np.random.Generator) -> ClusteringInput:
    """Well-separated Gaussian blobs (easy, needs correct k)."""
    n = _random_count(rng)
    true_k = int(rng.integers(2, 11))
    centers = rng.uniform(-100.0, 100.0, size=(true_k, 2))
    spread = float(rng.uniform(0.5, 3.0))
    assignments = rng.integers(0, true_k, size=n)
    points = centers[assignments] + rng.normal(0.0, spread, size=(n, 2))
    return ClusteringInput(points=points, true_k=true_k)


def _elongated(rng: np.random.Generator) -> ClusteringInput:
    """Anisotropic clusters (harder; more iterations help)."""
    n = _random_count(rng)
    true_k = int(rng.integers(2, 7))
    centers = rng.uniform(-100.0, 100.0, size=(true_k, 2))
    assignments = rng.integers(0, true_k, size=n)
    noise = rng.normal(0.0, 1.0, size=(n, 2)) * np.array([12.0, 1.5])
    points = centers[assignments] + noise
    return ClusteringInput(points=points, true_k=true_k)


def _uniform_noise(rng: np.random.Generator) -> ClusteringInput:
    """No real cluster structure: tiny k and few iterations suffice."""
    n = _random_count(rng)
    points = rng.uniform(-100.0, 100.0, size=(n, 2))
    return ClusteringInput(points=points, true_k=2)


def _dense_core_sparse_halo(rng: np.random.Generator) -> ClusteringInput:
    """One dense core plus sparse outliers."""
    n = _random_count(rng)
    n_core = int(0.8 * n)
    core = rng.normal(0.0, 3.0, size=(n_core, 2))
    halo = rng.uniform(-150.0, 150.0, size=(n - n_core, 2))
    return ClusteringInput(points=np.vstack([core, halo]), true_k=3)


def _many_small_clusters(rng: np.random.Generator) -> ClusteringInput:
    """Many tight clusters: needs large k (slow configurations)."""
    n = _random_count(rng)
    true_k = int(rng.integers(10, 17))
    centers = rng.uniform(-120.0, 120.0, size=(true_k, 2))
    assignments = rng.integers(0, true_k, size=n)
    points = centers[assignments] + rng.normal(0.0, 1.0, size=(n, 2))
    return ClusteringInput(points=points, true_k=true_k)


SYNTHETIC_FAMILIES = [
    _blobs,
    _elongated,
    _uniform_noise,
    _dense_core_sparse_halo,
    _many_small_clusters,
]


def synthetic_item(index: int, seed: int = 0) -> ClusteringInput:
    """Input ``index`` of the clustering2 population (pure in (index, seed))."""
    rng = per_index_rng(seed, index, "clustering", "synthetic")
    family = SYNTHETIC_FAMILIES[index % len(SYNTHETIC_FAMILIES)]
    return family(rng)


def generate_synthetic(n: int, seed: int = 0) -> List[ClusteringInput]:
    """The clustering2 population."""
    return [synthetic_item(i, seed) for i in range(n)]


def real_world_item(index: int, seed: int = 0) -> ClusteringInput:
    """Input ``index`` of the clustering1 population: poker-hand-like lattice data.

    Points live on a small integer lattice (card rank x suit), occupancy is
    highly skewed (some hands are far more common), and many points coincide
    exactly -- the regime where a cheap density feature identifies the input
    class and small-k configurations win.
    """
    rng = per_index_rng(seed, index, "clustering", "real_world")
    count = _random_count(rng)
    n_modes = int(rng.integers(2, 7))
    mode_centers = np.stack(
        [rng.integers(1, 14, size=n_modes), rng.integers(1, 5, size=n_modes)],
        axis=1,
    ).astype(float)
    weights = rng.dirichlet(np.ones(n_modes) * 0.6)
    assignments = rng.choice(n_modes, size=count, p=weights)
    # Lattice jitter of at most one step; modes themselves sit on a much
    # coarser grid (see the scaling below), so hands belonging to
    # different modes stay well separated and coincide heavily within a
    # mode -- the structure that makes cheap small-k configurations
    # reliably accurate on this population.
    jitter = rng.integers(-1, 2, size=(count, 2)).astype(float) * 0.5
    points = mode_centers[assignments] + jitter
    points[:, 0] = np.clip(points[:, 0], 1, 13)
    points[:, 1] = np.clip(points[:, 1], 1, 4)
    # Scale ranks and suits onto comparable, well-separated numeric ranges.
    points = points * np.array([6.0, 18.0])
    return ClusteringInput(points=points, true_k=n_modes)


def generate_real_world(n: int, seed: int = 0) -> List[ClusteringInput]:
    """The clustering1 population: poker-hand-like lattice data."""
    return [real_world_item(i, seed) for i in range(n)]

"""K-means variants for the Clustering benchmark.

The benchmark's algorithmic choice is the *initialization strategy* of a
k-means clusterer (``random``, ``prefix``, or ``centerplus``), combined with
tunable cluster count ``k`` and iteration budget.  All three variants share
the Lloyd-iteration core below; they differ only in how the initial centres
are chosen, which is exactly the structure of the PetaBricks benchmark.

Costs: every Lloyd iteration charges ``n * k`` distance evaluations;
``centerplus`` initialization charges an extra ``n * k`` for its seeding
scan, making it the most expensive (and most robust) choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.lang.cost import charge


@dataclass(frozen=True)
class ClusteringOutput:
    """Result of one clustering run.

    Attributes:
        centers: (k, 2) array of cluster centres.
        assignments: per-point cluster index.
        mean_distance: mean distance from each point to its assigned centre.
    """

    centers: np.ndarray
    assignments: np.ndarray
    mean_distance: float


def _init_random(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random distinct points as initial centres."""
    indices = rng.choice(len(points), size=min(k, len(points)), replace=False)
    charge(k, "init")
    return points[indices].astype(float)


def _init_prefix(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The first k points as initial centres (cheapest, order sensitive)."""
    charge(k, "init")
    return points[: min(k, len(points))].astype(float).copy()


def _init_centerplus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding (most expensive, most robust)."""
    n = len(points)
    centers = np.empty((min(k, n), points.shape[1]), dtype=float)
    centers[0] = points[int(rng.integers(n))]
    closest_sq = np.sum((points - centers[0]) ** 2, axis=1)
    charge(n, "init")
    for i in range(1, centers.shape[0]):
        total = float(closest_sq.sum())
        if total <= 0:
            index = int(rng.integers(n))
        else:
            index = int(rng.choice(n, p=closest_sq / total))
        centers[i] = points[index]
        closest_sq = np.minimum(closest_sq, np.sum((points - centers[i]) ** 2, axis=1))
        charge(n, "init")
    return centers


INIT_STRATEGIES = {
    "random": _init_random,
    "prefix": _init_prefix,
    "centerplus": _init_centerplus,
}


def kmeans_cluster(
    points: np.ndarray,
    k: int,
    iterations: int,
    init: str = "random",
    seed: int = 0,
) -> ClusteringOutput:
    """Cluster ``points`` into ``k`` groups with a bounded Lloyd iteration.

    Args:
        points: (n, 2) array of coordinates.
        k: number of clusters (clamped to the number of points).
        iterations: number of Lloyd iterations to run.
        init: one of ``"random"``, ``"prefix"``, ``"centerplus"``.
        seed: RNG seed for the initialization strategies that need one.

    Raises:
        ValueError: for an unknown init strategy or non-positive k/iterations.
    """
    if init not in INIT_STRATEGIES:
        raise ValueError(f"unknown init strategy {init!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        raise ValueError("cannot cluster zero points")
    k = min(k, n)
    rng = np.random.default_rng(seed)

    centers = INIT_STRATEGIES[init](points, k, rng)
    assignments = np.zeros(n, dtype=int)
    for _ in range(iterations):
        distances = _point_center_distances(points, centers)
        assignments = np.argmin(distances, axis=1)
        charge(n * centers.shape[0], "distance")
        # Each occupied cluster moves to its members' mean.  ``bincount``
        # adds a cluster's coordinates in point order, as the per-cluster
        # ``points[assignments == c].mean(axis=0)`` does on the benchmark's
        # 2-D points (NumPy reduces an (m, d >= 2) block row by row), so the
        # centres are bit-identical to that loop; empty clusters stay put.
        counts = np.bincount(assignments, minlength=centers.shape[0])
        occupied = counts > 0
        for dim in range(points.shape[1]):
            sums = np.bincount(assignments, weights=points[:, dim], minlength=centers.shape[0])
            centers[occupied, dim] = sums[occupied] / counts[occupied]
        charge(n, "update")

    distances = _point_center_distances(points, centers)
    assignments = np.argmin(distances, axis=1)
    nearest = distances[np.arange(n), assignments]
    mean_distance = float(np.sqrt(nearest).mean())
    return ClusteringOutput(
        centers=centers, assignments=assignments, mean_distance=mean_distance
    )


def canonical_clustering(points: np.ndarray, true_k: Optional[int] = None) -> ClusteringOutput:
    """The reference clustering the accuracy metric compares against.

    The paper defines accuracy relative to "a canonical clustering
    algorithm"; we use centerplus seeding with a generous iteration budget
    and, when the generator recorded the true number of clusters, that k.
    This runs outside the benchmark's cost accounting (it models an offline
    reference, not part of the tuned program).
    """
    k = true_k if true_k is not None else _estimate_k(points)
    return kmeans_cluster(points, k=k, iterations=6, init="centerplus", seed=1234)


def _estimate_k(points: np.ndarray) -> int:
    """Crude elbow-free estimate of cluster count used for unlabeled data."""
    n = len(points)
    return max(2, min(12, int(round(np.sqrt(n / 25.0)))))


def _point_center_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (n_points, n_centers).

    Sums one (n_points, n_centers) square per dimension, in dimension
    order: the additions ``np.sum(diff ** 2, axis=2)`` makes on the
    (n, k, d) difference cube (NumPy sums fewer than 8 terms
    sequentially), without the cube's length-d inner loops.
    """
    total = (points[:, 0, None] - centers[None, :, 0]) ** 2
    for dim in range(1, points.shape[1]):
        total += (points[:, dim, None] - centers[None, :, dim]) ** 2
    return total

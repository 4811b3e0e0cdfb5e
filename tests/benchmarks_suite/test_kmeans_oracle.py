"""Kernel oracle: the clustering benchmark's k-means against a plain reference.

``kmeans_cluster`` moves every centre with per-dimension ``np.bincount``
sums and builds its distance matrix one dimension at a time.  The reference
below is the per-cluster Python loop and the ``(n, k, d)`` difference cube
it replaced, kept verbatim.  Hypothesis asserts the two agree bit for bit on
centres, assignments and mean distance, and on the per-category work units
charged to the ``CostCounter``.

The points have two coordinates, as every clustering input does, or
three.  Two cases lie outside the bit-for-bit contract:

* 1-D points: NumPy's ``mean(axis=0)`` over an ``(m, 1)`` block sums
  pairwise, while over ``(m, d >= 2)`` it adds row by row, the order
  ``bincount`` uses.
* A cluster whose members all hold ``-0.0`` in some coordinate gets a
  ``+0.0`` centre coordinate from ``bincount`` (its sums start at
  ``0.0``) where the reference's mean keeps ``-0.0``.  The two compare
  equal and give the same distances, so the strategies normalise ``-0.0``
  to ``0.0`` before comparing bytes;
  :func:`test_negative_zero_centres_compare_equal` pins that case by value.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks_suite import get_benchmark
from repro.benchmarks_suite.clustering.algorithms import (
    INIT_STRATEGIES,
    ClusteringOutput,
    canonical_clustering,
    kmeans_cluster,
)
from repro.lang.cost import charge, scoped_counter

INITS = sorted(INIT_STRATEGIES)


def _reference_distances(points, centers):
    diff = points[:, None, :] - centers[None, :, :]
    return np.sum(diff ** 2, axis=2)


def reference_kmeans(points, k, iterations, init="random", seed=0):
    """``kmeans_cluster`` with the per-cluster centre loop, unvectorized."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    k = min(k, n)
    rng = np.random.default_rng(seed)
    centers = INIT_STRATEGIES[init](points, k, rng)
    assignments = np.zeros(n, dtype=int)
    for _ in range(iterations):
        distances = _reference_distances(points, centers)
        assignments = np.argmin(distances, axis=1)
        charge(n * centers.shape[0], "distance")
        for cluster in range(centers.shape[0]):
            members = points[assignments == cluster]
            if len(members) > 0:
                centers[cluster] = members.mean(axis=0)
        charge(n, "update")
    distances = _reference_distances(points, centers)
    assignments = np.argmin(distances, axis=1)
    nearest = distances[np.arange(n), assignments]
    return ClusteringOutput(
        centers=centers,
        assignments=assignments,
        mean_distance=float(np.sqrt(nearest).mean()),
    )


def _charged(fn, *args, **kwargs):
    with scoped_counter() as counter:
        output = fn(*args, **kwargs)
    return output, counter


def assert_same_run(points, k, iterations, init, seed):
    """Kernel and reference agree on every output bit and every charge."""
    got, got_cost = _charged(kmeans_cluster, points, k, iterations, init, seed)
    want, want_cost = _charged(reference_kmeans, points, k, iterations, init, seed)
    assert got.centers.dtype == want.centers.dtype
    assert got.centers.shape == want.centers.shape
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.assignments.dtype == want.assignments.dtype
    assert np.array_equal(got.assignments, want.assignments)
    assert np.float64(got.mean_distance).tobytes() == np.float64(want.mean_distance).tobytes()
    assert got_cost.total == want_cost.total
    assert got_cost.by_category == want_cost.by_category


@st.composite
def point_sets(draw):
    """2-D or 3-D points: gaussian blobs, or a lattice with duplicates."""
    n = draw(st.integers(min_value=1, max_value=3000))
    dims = draw(st.sampled_from([2, 2, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_blobs = draw(st.integers(min_value=1, max_value=8))
    scale = draw(st.sampled_from([1e-3, 1.0, 100.0, 1e6]))
    blob_centres = rng.uniform(-scale, scale, size=(n_blobs, dims))
    points = blob_centres[rng.integers(0, n_blobs, size=n)]
    points = points + rng.normal(0.0, scale / 10.0, size=(n, dims))
    if draw(st.integers(0, 4)) == 0:
        # Snap to a coarse lattice: many exact duplicates and ties.
        step = scale / draw(st.sampled_from([1, 4, 16]))
        points = np.round(points / step) * step
    return points + 0.0  # -0.0 -> 0.0; see the module docstring


@settings(max_examples=150, deadline=None)
@given(
    points=point_sets(),
    k=st.integers(min_value=1, max_value=16),
    iterations=st.integers(min_value=1, max_value=20),
    init=st.sampled_from(INITS),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_kernel_matches_reference(points, k, iterations, init, seed):
    assert_same_run(points, k, iterations, init, seed)


@settings(max_examples=60, deadline=None)
@given(
    coordinates=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=40,
    ),
    k=st.integers(min_value=1, max_value=6),
    iterations=st.integers(min_value=1, max_value=5),
    init=st.sampled_from(INITS),
)
def test_kernel_matches_reference_on_drawn_coordinates(coordinates, k, iterations, init):
    """Hypothesis-chosen coordinates, shrinkable to the smallest failing set."""
    usable = len(coordinates) // 2 * 2
    points = np.asarray(coordinates[:usable], dtype=float).reshape(-1, 2) + 0.0
    assert_same_run(points, k, iterations, init, seed=3)


def test_canonical_clustering_matches_reference():
    """The accuracy metric's reference clustering, on clustering1 inputs."""
    variant = get_benchmark("clustering1")
    inputs = variant.benchmark.generate_inputs(12, variant.variant, seed=5)
    for problem in inputs:
        got = canonical_clustering(problem.points, true_k=problem.true_k)
        want = reference_kmeans(problem.points, problem.true_k, 6, "centerplus", 1234)
        assert got.centers.tobytes() == want.centers.tobytes()
        assert np.array_equal(got.assignments, want.assignments)
        assert got.mean_distance == want.mean_distance


@pytest.mark.parametrize("init", INITS)
def test_clustering1_inputs_match_reference(init):
    """Sampled tuner configurations on the generated clustering1 population."""
    variant = get_benchmark("clustering1")
    inputs = variant.benchmark.generate_inputs(6, variant.variant, seed=11)
    rng = np.random.default_rng(0)
    for problem in inputs:
        for _ in range(4):
            k = int(rng.integers(2, 17))
            iterations = int(rng.integers(1, 21))
            assert_same_run(problem.points, k, iterations, init, seed=7)


def test_negative_zero_centres_compare_equal():
    """All-``-0.0`` members: the centre's zero may differ in sign, not value."""
    points = np.array([[-0.0, 1.0], [-0.0, 2.0], [5.0, 5.0], [6.0, 5.0]])
    got = kmeans_cluster(points, k=2, iterations=3, init="prefix")
    want = reference_kmeans(points, 2, 3, "prefix")
    assert np.array_equal(got.centers, want.centers)
    assert np.array_equal(got.assignments, want.assignments)
    assert got.mean_distance == want.mean_distance

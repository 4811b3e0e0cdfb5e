"""Tests for the Clustering benchmark."""

import numpy as np
import pytest

from repro.benchmarks_suite.clustering import algorithms, features, generators
from repro.benchmarks_suite.clustering.benchmark import (
    ACCURACY_THRESHOLD,
    ClusteringBenchmark,
    ClusteringInput,
    clustering_accuracy,
)
from repro.lang.cost import scoped_counter
from repro.runtime import input_key


def blobs(n=200, k=4, spread=0.5, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-50, 50, size=(k, 2))
    assignments = rng.integers(0, k, size=n)
    return centers[assignments] + rng.normal(0, spread, size=(n, 2))


class TestKmeansVariants:
    @pytest.mark.parametrize("init", ["random", "prefix", "centerplus"])
    def test_output_shapes(self, init):
        points = blobs()
        output = algorithms.kmeans_cluster(points, k=4, iterations=5, init=init)
        assert output.centers.shape[1] == 2
        assert output.assignments.shape == (len(points),)
        assert output.mean_distance >= 0.0

    def test_centerplus_recovers_separated_blobs(self):
        points = blobs(spread=0.2)
        output = algorithms.kmeans_cluster(points, k=4, iterations=10, init="centerplus")
        assert output.mean_distance < 1.0

    def test_more_iterations_do_not_hurt(self):
        points = blobs(spread=2.0, seed=3)
        few = algorithms.kmeans_cluster(points, k=4, iterations=1, init="random", seed=5)
        many = algorithms.kmeans_cluster(points, k=4, iterations=20, init="random", seed=5)
        assert many.mean_distance <= few.mean_distance + 1e-9

    def test_cost_scales_with_k_and_iterations(self):
        points = blobs()
        with scoped_counter() as small:
            algorithms.kmeans_cluster(points, k=2, iterations=2)
        with scoped_counter() as big:
            algorithms.kmeans_cluster(points, k=8, iterations=10)
        assert big.total > small.total

    def test_centerplus_init_costs_more_than_prefix(self):
        points = blobs()
        with scoped_counter() as prefix:
            algorithms.kmeans_cluster(points, k=6, iterations=1, init="prefix")
        with scoped_counter() as centerplus:
            algorithms.kmeans_cluster(points, k=6, iterations=1, init="centerplus")
        assert centerplus.total > prefix.total

    def test_bad_arguments(self):
        points = blobs()
        with pytest.raises(ValueError):
            algorithms.kmeans_cluster(points, k=0, iterations=1)
        with pytest.raises(ValueError):
            algorithms.kmeans_cluster(points, k=2, iterations=0)
        with pytest.raises(ValueError):
            algorithms.kmeans_cluster(points, k=2, iterations=1, init="bogus")
        with pytest.raises(ValueError):
            algorithms.kmeans_cluster(np.empty((0, 2)), k=2, iterations=1)

    def test_k_clamped_to_point_count(self):
        points = blobs(n=3)
        output = algorithms.kmeans_cluster(points, k=10, iterations=2)
        assert output.centers.shape[0] <= 3


class TestClusteringAccuracyMetric:
    def test_good_clustering_meets_threshold(self):
        problem = ClusteringInput(points=blobs(spread=0.3, seed=1), true_k=4)
        output = algorithms.kmeans_cluster(problem.points, k=4, iterations=15, init="centerplus")
        assert clustering_accuracy(problem, output) >= ACCURACY_THRESHOLD

    def test_too_few_clusters_fails_threshold(self):
        problem = ClusteringInput(points=blobs(spread=0.3, seed=2, k=6), true_k=6)
        output = algorithms.kmeans_cluster(problem.points, k=1, iterations=5)
        assert clustering_accuracy(problem, output) < ACCURACY_THRESHOLD

    def test_canonical_distance_cached(self):
        problem = ClusteringInput(points=blobs(seed=3), true_k=4)
        first = problem.canonical_distance()
        assert problem.canonical_distance() == first

    def test_canonical_distance_leaves_input_key_unchanged(self):
        # The run cache keys inputs by content; a run computing the cached
        # distance must not change the key its own result is stored under.
        problem = ClusteringInput(points=blobs(seed=3), true_k=4)
        before = input_key(problem)
        problem.canonical_distance()
        assert input_key(problem) == before


class TestClusteringGeneratorsAndProgram:
    def test_generator_counts(self):
        assert len(generators.generate_synthetic(10, seed=0)) == 10
        assert len(generators.generate_real_world(10, seed=0)) == 10

    def test_real_world_inputs_are_lattice_like(self):
        inputs = generators.generate_real_world(5, seed=1)
        for problem in inputs:
            distinct = len(np.unique(problem.points, axis=0))
            assert distinct < len(problem.points)  # heavy duplication

    def test_feature_set_structure(self):
        feature_set = features.build_feature_set()
        assert set(feature_set.property_names) == {"radius", "centers", "density", "range", "size"}

    def test_centers_feature_grows_with_true_k(self):
        tight = ClusteringInput(points=blobs(k=2, spread=0.3, seed=4), true_k=2)
        many = ClusteringInput(points=blobs(k=8, spread=0.3, seed=5), true_k=8)
        assert features.centers(many, 1.0) > features.centers(tight, 1.0)

    def test_program_runs_and_scores(self):
        benchmark = ClusteringBenchmark()
        program = benchmark.program
        problem = benchmark.generate_inputs(1, "synthetic", seed=0)[0]
        result = program.run(program.default_configuration(), problem)
        assert result.time > 0
        assert result.accuracy > 0

    def test_program_has_paper_accuracy_threshold(self):
        program = ClusteringBenchmark().program
        assert program.accuracy_requirement.accuracy_threshold == pytest.approx(0.8)

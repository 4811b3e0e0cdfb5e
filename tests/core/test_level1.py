"""Tests for the Level-1 pipeline (clustering, landmarks, measurement)."""

import random

import numpy as np
import pytest

from repro.benchmarks_suite.sort.benchmark import SortBenchmark
from repro.core.level1 import (
    Level1Config,
    cluster_inputs,
    create_landmarks,
    extract_features,
    measure_performance,
    representative_input_indices,
    run_level1,
)


@pytest.fixture(scope="module")
def sort_setup():
    benchmark = SortBenchmark()
    inputs = benchmark.generate_inputs(24, "synthetic", seed=0)
    return benchmark.program, inputs


class TestLevel1Steps:
    def test_extract_features_shapes(self, sort_setup):
        program, inputs = sort_setup
        extracted = extract_features(program, inputs)
        assert extracted["features"].shape == (24, program.features.num_features())
        assert extracted["costs"].shape == extracted["features"].shape
        assert np.all(extracted["costs"] >= 0)

    def test_cluster_inputs_returns_requested_clusters(self, sort_setup):
        program, inputs = sort_setup
        extracted = extract_features(program, inputs)
        clustering = cluster_inputs(extracted["features"], n_clusters=4, seed=0)
        assert clustering["centroids"].shape[0] == 4
        assert clustering["labels"].shape == (24,)

    def test_representatives_belong_to_their_cluster(self, sort_setup):
        program, inputs = sort_setup
        extracted = extract_features(program, inputs)
        clustering = cluster_inputs(extracted["features"], n_clusters=4, seed=0)
        representatives = representative_input_indices(
            clustering["normalized"], clustering["labels"], clustering["centroids"], n_neighbors=2
        )
        assert len(representatives) == 4
        for cluster, members in enumerate(representatives):
            assert 1 <= len(members) <= 2
            for index in members:
                assert clustering["labels"][index] == cluster

    def test_empty_cluster_takes_the_inputs_nearest_its_centroid(self):
        """A cluster left without members still gets representatives: the
        inputs closest to its centroid, from any cluster."""
        features = np.array([[0.0], [1.0], [10.0], [11.0], [4.0]])
        labels = np.array([0, 0, 1, 1, 0])
        centroids = np.array([[1.0], [10.5], [5.0]])
        representatives = representative_input_indices(
            features, labels, centroids, n_neighbors=2
        )
        assert representatives == [[1, 0], [2, 3], [4, 1]]

    def test_create_landmarks_produces_valid_configs(self, sort_setup):
        program, inputs = sort_setup
        config = Level1Config(n_clusters=3, tuner_generations=2, tuner_population=4)
        landmarks = create_landmarks(program, inputs, [[0], [5], [10]], config)
        assert len(landmarks["landmarks"]) == 3
        for landmark in landmarks["landmarks"]:
            program.config_space.validate(landmark.as_dict())
        assert landmarks["evaluations"] > 0

    def test_measure_performance_shapes(self, sort_setup):
        program, inputs = sort_setup
        configs = [program.default_configuration()]
        measured = measure_performance(program, inputs[:6], configs)
        assert measured["times"].shape == (6, 1)
        assert measured["accuracies"].shape == (6, 1)
        assert np.all(measured["times"] > 0)


class TestRunLevel1:
    def test_end_to_end_result_structure(self, sort_setup):
        program, inputs = sort_setup
        config = Level1Config(n_clusters=4, tuner_generations=2, tuner_population=4, tuning_neighbors=2)
        result = run_level1(program, inputs, config=config)
        dataset = result.dataset
        assert dataset.n_inputs == len(inputs)
        assert dataset.n_landmarks == len(result.landmarks)
        assert len(result.cluster_to_landmark) == 4
        assert max(result.cluster_to_landmark) < dataset.n_landmarks
        assert dataset.times.shape == (len(inputs), dataset.n_landmarks)
        assert result.tuning_evaluations > 0

    def test_landmarks_deduplicated(self, sort_setup):
        program, inputs = sort_setup
        config = Level1Config(n_clusters=5, tuner_generations=1, tuner_population=4)
        result = run_level1(program, inputs, config=config)
        assert len(set(result.landmarks)) == len(result.landmarks)

    def test_starting_landmarks_come_first(self, sort_setup):
        """A retrain starts the landmark set with the serving landmarks, so
        the serving classifier's labels stay valid column indices."""
        program, inputs = sort_setup
        start = program.default_configuration()
        config = Level1Config(n_clusters=3, tuner_generations=1, tuner_population=4)
        result = run_level1(program, inputs, config=config, landmarks=[start])
        assert result.landmarks[0] == start
        assert len(set(result.landmarks)) == len(result.landmarks)
        alone = measure_performance(program, inputs, [start])
        np.testing.assert_array_equal(result.dataset.times[:, :1], alone["times"])
        np.testing.assert_array_equal(
            result.dataset.accuracies[:, :1], alone["accuracies"]
        )

    def test_starting_landmarks_keep_their_order(self, sort_setup):
        program, inputs = sort_setup
        start = [
            program.config_space.sample(random.Random(0)),
            program.default_configuration(),
        ]
        assert start[0] != start[1]
        config = Level1Config(n_clusters=3, tuner_generations=1, tuner_population=4)
        result = run_level1(program, inputs, config=config, landmarks=start)
        assert result.landmarks[:2] == start
        assert result.dataset.landmarks == result.landmarks

    def test_a_started_landmark_that_tuning_finds_is_not_repeated(self, sort_setup):
        """Starting from a configuration the tuner picks anyway leaves the
        landmark set, and the landmark of each cluster, as they were."""
        program, inputs = sort_setup
        config = Level1Config(n_clusters=3, tuner_generations=1, tuner_population=4)
        plain = run_level1(program, inputs, config=config)
        started = run_level1(
            program, inputs, config=config, landmarks=plain.landmarks[:1]
        )
        assert started.landmarks == plain.landmarks
        assert started.cluster_to_landmark == plain.cluster_to_landmark

    def test_each_cluster_keeps_its_tuned_landmark_after_a_start(self, sort_setup):
        """A start set shifts the tuned landmarks' columns; each cluster's
        index still names the configuration tuned for it."""
        program, inputs = sort_setup
        config = Level1Config(n_clusters=3, tuner_generations=1, tuner_population=4)
        plain = run_level1(program, inputs, config=config)
        start = program.config_space.sample(random.Random(0))
        assert start not in plain.landmarks
        started = run_level1(program, inputs, config=config, landmarks=[start])
        assert started.landmarks == [start] + plain.landmarks
        for cluster, index in enumerate(started.cluster_to_landmark):
            assert index == plain.cluster_to_landmark[cluster] + 1
            assert started.landmarks[index] == plain.landmarks[
                plain.cluster_to_landmark[cluster]
            ]

    def test_progress_callback_invoked(self, sort_setup):
        program, inputs = sort_setup
        messages = []
        config = Level1Config(n_clusters=2, tuner_generations=1, tuner_population=4)
        run_level1(program, inputs[:8], config=config, progress=messages.append)
        assert any("landmark" in message for message in messages)
        assert any("measured" in message for message in messages)

    def test_too_few_inputs_rejected(self, sort_setup):
        program, inputs = sort_setup
        with pytest.raises(ValueError):
            run_level1(program, inputs[:1])

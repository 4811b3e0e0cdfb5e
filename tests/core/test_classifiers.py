"""Tests for the candidate classifier zoo."""

import numpy as np
import pytest

from repro.core.classifiers import (
    AllFeaturesClassifier,
    IncrementalFeatureExaminationClassifier,
    MaxAprioriClassifier,
    SubsetDecisionTreeClassifier,
    order_features_by_cost,
)
from repro.core.dataset import PerformanceDataset
from repro.lang.accuracy import AccuracyRequirement
from repro.lang.config import Configuration
from repro.lang.cost import charge
from repro.lang.features import FeatureExtractor, FeatureSet


def make_dataset(n=60, seed=0):
    """Feature a@* determines the best landmark; b@* is noise.

    a levels cost 1 and 3; b levels cost 10 and 30 (expensive and useless).
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    features = np.column_stack([a, a, rng.normal(size=n), rng.normal(size=n)])
    extraction_costs = np.tile(np.array([1.0, 3.0, 10.0, 30.0]), (n, 1))
    times = np.column_stack(
        [np.where(a < 0, 5.0, 50.0), np.where(a < 0, 50.0, 5.0)]
    )
    accuracies = np.ones((n, 2))
    return PerformanceDataset(
        feature_names=["a@0", "a@1", "b@0", "b@1"],
        features=features,
        extraction_costs=extraction_costs,
        times=times,
        accuracies=accuracies,
        landmarks=[Configuration({"id": 0}), Configuration({"id": 1})],
        requirement=AccuracyRequirement.disabled(),
    )


def deployment_feature_set():
    """A feature set matching the dataset layout for deployment-time tests."""

    def a_extractor(value, fraction):
        charge(1.0 if fraction < 0.5 else 3.0, "feature")
        return float(value)

    def b_extractor(value, fraction):
        charge(10.0 if fraction < 0.5 else 30.0, "feature")
        return 0.0

    return FeatureSet(
        [
            FeatureExtractor("a", a_extractor, levels=2, level_fractions=[0.1, 1.0]),
            FeatureExtractor("b", b_extractor, levels=2, level_fractions=[0.1, 1.0]),
        ]
    )


class TestMaxApriori:
    def test_predicts_majority_label(self):
        dataset = make_dataset()
        labels = dataset.labels()
        classifier = MaxAprioriClassifier().fit(dataset, range(60), labels)
        majority = int(np.bincount(labels).argmax())
        predictions = classifier.predict_rows(dataset, range(60))
        assert np.all(predictions.labels == majority)
        assert np.all(predictions.extraction_costs == 0.0)

    def test_deployment_costs_nothing(self):
        dataset = make_dataset()
        classifier = MaxAprioriClassifier().fit(dataset, range(60), dataset.labels())
        label, cost = classifier.classify_input(1.0, deployment_feature_set())
        assert cost == 0.0
        assert label in (0, 1)


class TestSubsetDecisionTree:
    def test_learns_the_informative_feature(self):
        dataset = make_dataset()
        labels = dataset.labels()
        classifier = SubsetDecisionTreeClassifier(["a@0"]).fit(dataset, range(40), labels)
        predictions = classifier.predict_rows(dataset, range(40, 60))
        assert np.mean(predictions.labels == labels[40:60]) > 0.9

    def test_extraction_cost_matches_subset(self):
        dataset = make_dataset()
        labels = dataset.labels()
        cheap = SubsetDecisionTreeClassifier(["a@0"]).fit(dataset, range(40), labels)
        costly = SubsetDecisionTreeClassifier(["a@0", "b@1"]).fit(dataset, range(40), labels)
        assert np.all(cheap.predict_rows(dataset, range(5)).extraction_costs == 1.0)
        assert np.all(costly.predict_rows(dataset, range(5)).extraction_costs == 31.0)

    def test_deployment_extracts_only_needed_features(self):
        dataset = make_dataset()
        labels = dataset.labels()
        classifier = SubsetDecisionTreeClassifier(["a@0"]).fit(dataset, range(60), labels)
        label, cost = classifier.classify_input(-2.0, deployment_feature_set())
        assert label == 0
        assert cost == pytest.approx(1.0)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            SubsetDecisionTreeClassifier([])

    def test_unfitted_raises(self):
        dataset = make_dataset()
        with pytest.raises(RuntimeError):
            SubsetDecisionTreeClassifier(["a@0"]).predict_rows(dataset, range(5))


class TestAllFeatures:
    def test_uses_top_level_of_every_property(self):
        dataset = make_dataset()
        classifier = AllFeaturesClassifier(dataset.feature_names)
        assert set(classifier.feature_names) == {"a@1", "b@1"}

    def test_fit_predict(self):
        dataset = make_dataset()
        labels = dataset.labels()
        classifier = AllFeaturesClassifier(dataset.feature_names).fit(dataset, range(40), labels)
        predictions = classifier.predict_rows(dataset, range(40, 60))
        assert np.mean(predictions.labels == labels[40:60]) > 0.8


class TestIncrementalFeatureExamination:
    def test_order_features_by_cost(self):
        dataset = make_dataset()
        ordered = order_features_by_cost(dataset, dataset.feature_names)
        assert ordered == ["a@0", "a@1", "b@0", "b@1"]

    def test_confident_inputs_use_fewer_features(self):
        dataset = make_dataset(n=200)
        labels = dataset.labels()
        ordered = order_features_by_cost(dataset, dataset.feature_names)
        classifier = IncrementalFeatureExaminationClassifier(
            ordered, posterior_threshold=0.8
        ).fit(dataset, range(150), labels)
        predictions = classifier.predict_rows(dataset, range(150, 200))
        # The informative cheap feature should often be enough, so the mean
        # extraction cost must be far below extracting everything (44).
        assert predictions.extraction_costs.mean() < 20.0
        assert np.mean(predictions.labels == labels[150:200]) > 0.8

    def test_lower_threshold_means_cheaper_classification(self):
        dataset = make_dataset(n=200)
        labels = dataset.labels()
        ordered = order_features_by_cost(dataset, dataset.feature_names)
        eager = IncrementalFeatureExaminationClassifier(ordered, posterior_threshold=0.5).fit(
            dataset, range(150), labels
        )
        cautious = IncrementalFeatureExaminationClassifier(ordered, posterior_threshold=0.999).fit(
            dataset, range(150), labels
        )
        eager_cost = eager.predict_rows(dataset, range(150, 200)).extraction_costs.mean()
        cautious_cost = cautious.predict_rows(dataset, range(150, 200)).extraction_costs.mean()
        assert eager_cost <= cautious_cost

    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9, 0.999])
    def test_batch_prediction_matches_per_row_walk(self, threshold):
        """``predict_rows`` advances every row one feature at a time; each
        row's label and cost must be bit-identical to walking that row alone
        through ``_classify_vector``."""
        dataset = make_dataset(n=200)
        labels = dataset.labels()
        ordered = order_features_by_cost(dataset, dataset.feature_names)
        classifier = IncrementalFeatureExaminationClassifier(
            ordered, posterior_threshold=threshold
        ).fit(dataset, range(150), labels)
        rows = list(range(150, 200))
        predictions = classifier.predict_rows(dataset, rows)
        columns = [dataset.feature_index(name) for name in classifier.feature_names]
        for position, row in enumerate(rows):
            label, cost, _ = classifier._classify_vector(
                dataset.features[row, columns], dataset.extraction_costs[row, columns]
            )
            assert predictions.labels[position] == label
            assert predictions.extraction_costs[position] == cost

    def test_deployment_variable_cost(self):
        dataset = make_dataset(n=200)
        labels = dataset.labels()
        classifier = IncrementalFeatureExaminationClassifier(
            ["a@0", "b@1"], posterior_threshold=0.75
        ).fit(dataset, range(200), labels)
        label, cost = classifier.classify_input(-3.0, deployment_feature_set())
        assert label in (0, 1)
        assert cost in (pytest.approx(1.0), pytest.approx(31.0))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            IncrementalFeatureExaminationClassifier([])
        with pytest.raises(ValueError):
            IncrementalFeatureExaminationClassifier(["a@0"], posterior_threshold=0.0)

"""Tests for classifier-efficacy scoring and production-classifier selection."""

import numpy as np
import pytest

from repro.core.classifiers import MaxAprioriClassifier, SubsetDecisionTreeClassifier
from repro.core.dataset import PerformanceDataset
from repro.core.selection import (
    ClassifierEvaluation,
    evaluate_classifier,
    select_production_classifier,
)
from repro.lang.accuracy import AccuracyRequirement
from repro.lang.config import Configuration


def make_dataset(variable_accuracy=False, n=40, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    features = np.column_stack([a, rng.normal(size=n)])
    extraction_costs = np.tile(np.array([2.0, 20.0]), (n, 1))
    times = np.column_stack([np.where(a < 0, 5.0, 50.0), np.where(a < 0, 50.0, 5.0)])
    accuracies = np.ones((n, 2))
    if variable_accuracy:
        accuracies[:, 1] = 0.0  # landmark 1 never meets accuracy
    return PerformanceDataset(
        feature_names=["a@0", "b@0"],
        features=features,
        extraction_costs=extraction_costs,
        times=times,
        accuracies=accuracies,
        landmarks=[Configuration({"id": 0}), Configuration({"id": 1})],
        requirement=AccuracyRequirement(accuracy_threshold=0.5)
        if variable_accuracy
        else AccuracyRequirement.disabled(),
    )


def fake_evaluation(name, cost, valid=True, satisfaction=1.0):
    classifier = MaxAprioriClassifier()
    classifier.description = type(classifier.description)(
        name=name, method="max_apriori", feature_names=()
    )
    return ClassifierEvaluation(
        classifier=classifier,
        performance_cost=cost,
        performance_cost_no_extraction=cost,
        satisfaction_rate=satisfaction,
        valid=valid,
        mean_extraction_cost=0.0,
    )


class TestEvaluateClassifier:
    def test_cost_includes_extraction(self):
        dataset = make_dataset()
        labels = dataset.labels()
        classifier = SubsetDecisionTreeClassifier(["a@0"]).fit(dataset, range(40), labels)
        evaluation = evaluate_classifier(classifier, dataset, range(40))
        assert evaluation.performance_cost == pytest.approx(
            evaluation.performance_cost_no_extraction + 2.0
        )
        assert evaluation.mean_extraction_cost == pytest.approx(2.0)
        assert evaluation.valid

    def test_perfect_classifier_reaches_oracle_cost(self):
        dataset = make_dataset()
        labels = dataset.labels()
        classifier = SubsetDecisionTreeClassifier(["a@0"]).fit(dataset, range(40), labels)
        evaluation = evaluate_classifier(classifier, dataset, range(40))
        assert evaluation.performance_cost_no_extraction == pytest.approx(5.0)

    def test_accuracy_violations_invalidate(self):
        dataset = make_dataset(variable_accuracy=True)
        labels = dataset.labels()  # always 0 (only accurate landmark)
        # A classifier hard-wired to the inaccurate landmark via a constant label:
        classifier = MaxAprioriClassifier().fit(dataset, range(40), np.ones(40, dtype=int))
        evaluation = evaluate_classifier(classifier, dataset, range(40))
        assert evaluation.satisfaction_rate == 0.0
        assert not evaluation.valid
        assert evaluation.effective_cost == float("inf")


class TestSelection:
    def test_picks_cheapest_valid(self):
        best = fake_evaluation("best", 10.0)
        worse = fake_evaluation("worse", 20.0)
        invalid = fake_evaluation("invalid", 1.0, valid=False, satisfaction=0.5)
        assert select_production_classifier([worse, invalid, best]) is best

    def test_falls_back_to_max_satisfaction_when_none_valid(self):
        bad = fake_evaluation("bad", 1.0, valid=False, satisfaction=0.2)
        better = fake_evaluation("better", 5.0, valid=False, satisfaction=0.8)
        assert select_production_classifier([bad, better]) is better

    def test_fallback_breaks_ties_by_cost(self):
        cheap = fake_evaluation("cheap", 1.0, valid=False, satisfaction=0.5)
        pricey = fake_evaluation("pricey", 9.0, valid=False, satisfaction=0.5)
        assert select_production_classifier([pricey, cheap]) is cheap

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_production_classifier([])

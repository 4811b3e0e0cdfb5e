"""Tests for accuracy metrics and the dual-threshold requirement."""

import pytest

from repro.lang.accuracy import AccuracyMetric, AccuracyRequirement, always_accurate


class TestAccuracyMetric:
    def test_score_calls_function(self):
        metric = AccuracyMetric("ratio", lambda inp, out: out / inp)
        assert metric.score(4.0, 2.0) == pytest.approx(0.5)

    def test_always_accurate(self):
        metric = always_accurate()
        assert metric.score(object(), object()) == 1.0


class TestAccuracyRequirement:
    def test_run_is_accurate_uses_threshold(self):
        requirement = AccuracyRequirement(accuracy_threshold=0.8)
        assert requirement.run_is_accurate(0.8)
        assert requirement.run_is_accurate(0.95)
        assert not requirement.run_is_accurate(0.79)

    def test_satisfaction_rate(self):
        requirement = AccuracyRequirement(accuracy_threshold=0.5)
        assert requirement.satisfaction_rate([0.4, 0.6, 0.7, 0.2]) == pytest.approx(0.5)

    def test_satisfaction_rate_empty_is_one(self):
        requirement = AccuracyRequirement(accuracy_threshold=0.5)
        assert requirement.satisfaction_rate([]) == 1.0

    def test_disabled_requirement_always_satisfied(self):
        requirement = AccuracyRequirement.disabled()
        assert requirement.run_is_accurate(-100.0)
        assert requirement.satisfaction_rate([-1.0, -2.0]) == 1.0

    def test_paper_default_satisfaction_threshold(self):
        """The paper sets the satisfaction threshold to 95% for all experiments."""
        assert AccuracyRequirement(accuracy_threshold=0.8).satisfaction_threshold == 0.95

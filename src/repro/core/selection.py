"""Production-classifier selection (paper Section 3.2, "Candidate Selection").

Every candidate classifier is applied to the test portion of the dataset and
scored by the paper's efficacy measure:

* **time-only programs** -- the per-input cost is
  ``r_i = tau(i, c_i) + g_i`` where ``tau`` is the execution time of the
  predicted landmark and ``g_i`` the extraction cost of the features the
  classifier consulted; the classifier's score is the mean
  ``R = sum(r_i) / N``.
* **variable-accuracy programs** -- a classifier is *valid* only when the
  fraction of test inputs whose predicted landmark meets the accuracy
  threshold reaches the satisfaction threshold (``H2``, 95%); invalid
  classifiers are treated as incurring a huge cost.  Among valid classifiers
  the same performance cost ``R`` decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.classifiers import CandidateClassifier
from repro.core.dataset import PerformanceDataset

#: Score assigned to classifiers that miss the satisfaction threshold.
INVALID_COST = float("inf")


@dataclass
class ClassifierEvaluation:
    """Measured efficacy of one candidate classifier on the test rows.

    Attributes:
        classifier: the evaluated classifier.
        performance_cost: mean per-input cost R (execution + extraction).
        performance_cost_no_extraction: mean cost ignoring extraction time.
        satisfaction_rate: fraction of test inputs whose predicted landmark
            meets the accuracy threshold.
        valid: whether the satisfaction threshold is met (always True for
            fixed-accuracy programs).
        mean_extraction_cost: mean feature-extraction cost per input.
    """

    classifier: CandidateClassifier
    performance_cost: float
    performance_cost_no_extraction: float
    satisfaction_rate: float
    valid: bool
    mean_extraction_cost: float

    @property
    def effective_cost(self) -> float:
        """Cost used for ranking (infinite when invalid)."""
        return self.performance_cost if self.valid else INVALID_COST


def evaluate_classifier(
    classifier: CandidateClassifier,
    dataset: PerformanceDataset,
    rows: Sequence[int],
) -> ClassifierEvaluation:
    """Score one classifier on the given dataset rows."""
    rows = np.asarray(rows, dtype=int)
    predictions = classifier.predict_rows(dataset, rows)
    predicted = predictions.labels
    execution_times = dataset.times[rows, predicted]
    accuracies = dataset.accuracies[rows, predicted]
    extraction = predictions.extraction_costs

    requirement = dataset.requirement
    if requirement.enabled:
        satisfaction = float(
            np.mean(accuracies >= requirement.accuracy_threshold)
        )
        valid = satisfaction >= requirement.satisfaction_threshold
    else:
        satisfaction = 1.0
        valid = True

    total_cost = execution_times + extraction
    return ClassifierEvaluation(
        classifier=classifier,
        performance_cost=float(np.mean(total_cost)),
        performance_cost_no_extraction=float(np.mean(execution_times)),
        satisfaction_rate=satisfaction,
        valid=valid,
        mean_extraction_cost=float(np.mean(extraction)),
    )


def select_production_classifier(
    evaluations: Sequence[ClassifierEvaluation],
) -> ClassifierEvaluation:
    """Pick the production classifier.

    Valid classifiers are ranked by performance cost; if no classifier is
    valid (possible when the accuracy requirement is unattainable on the
    test inputs) the one with the highest satisfaction rate, breaking ties by
    cost, is returned so deployment still produces the best available
    quality.

    Raises:
        ValueError: if ``evaluations`` is empty.
    """
    evaluations = list(evaluations)
    if not evaluations:
        raise ValueError("no classifier evaluations to select from")
    valid = [e for e in evaluations if e.valid]
    if valid:
        return min(valid, key=lambda e: e.performance_cost)
    return min(
        evaluations,
        key=lambda e: (-e.satisfaction_rate, e.performance_cost),
    )

"""The comparison methods of Table 1: Static Oracle, Dynamic Oracle, One-Level.

* **Static Oracle** -- one configuration for all inputs, chosen by trying
  each landmark and keeping the one with the best training-set performance
  among those meeting the satisfaction threshold.  This is "the performance
  that would be obtained by not using our system and instead using an
  autotuner without input adaptation".
* **Dynamic Oracle** -- the best landmark for each input individually, with
  no feature-extraction cost; the upper bound for any input classifier given
  the available landmarks.
* **One-Level learning** -- the traditional approach: cluster inputs on the
  predefined features, give each cluster its landmark, and at deployment
  assign a new input to the nearest centroid (which requires extracting all
  features).  It ignores feature-extraction overhead and the accuracy
  objective, which is why the paper observes up to 29x slowdowns and missed
  accuracy targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.dataset import PerformanceDataset
from repro.core.level1 import Level1Result
from repro.ml.kmeans import assign_clusters


@dataclass
class BaselineEvaluation:
    """Per-input outcome of a baseline method on a set of dataset rows.

    Attributes:
        name: method name.
        labels: chosen landmark per row.
        times: execution time per row including any feature-extraction cost
            the method requires.
        times_no_extraction: execution time per row ignoring extraction cost.
        accuracies: accuracy of the chosen landmark per row.
        satisfaction_rate: fraction of rows meeting the accuracy threshold.
    """

    name: str
    labels: np.ndarray
    times: np.ndarray
    times_no_extraction: np.ndarray
    accuracies: np.ndarray
    satisfaction_rate: float


def _satisfaction(dataset: PerformanceDataset, accuracies: np.ndarray) -> float:
    if not dataset.requirement.enabled:
        return 1.0
    return float(np.mean(accuracies >= dataset.requirement.accuracy_threshold))


class StaticOracle:
    """The best single landmark for the whole training set."""

    name = "static_oracle"

    def __init__(self) -> None:
        self.chosen_landmark_: Optional[int] = None

    def fit(self, dataset: PerformanceDataset, train_rows: Sequence[int]) -> "StaticOracle":
        """Pick the landmark with the best mean training time that meets the
        satisfaction threshold (or the most satisfying one if none does)."""
        train_rows = np.asarray(train_rows, dtype=int)
        times = dataset.times[train_rows]
        mean_times = times.mean(axis=0)
        requirement = dataset.requirement
        if requirement.enabled:
            accuracies = dataset.accuracies[train_rows]
            satisfaction = np.mean(
                accuracies >= requirement.accuracy_threshold, axis=0
            )
            feasible = np.flatnonzero(satisfaction >= requirement.satisfaction_threshold)
            if feasible.size > 0:
                self.chosen_landmark_ = int(feasible[np.argmin(mean_times[feasible])])
            else:
                self.chosen_landmark_ = int(np.argmax(satisfaction))
        else:
            self.chosen_landmark_ = int(np.argmin(mean_times))
        return self

    def evaluate(self, dataset: PerformanceDataset, rows: Sequence[int]) -> BaselineEvaluation:
        """Apply the chosen landmark to the given rows."""
        if self.chosen_landmark_ is None:
            raise RuntimeError("StaticOracle is not fitted")
        rows = np.asarray(rows, dtype=int)
        labels = np.full(rows.size, self.chosen_landmark_, dtype=int)
        times = dataset.times[rows, labels]
        accuracies = dataset.accuracies[rows, labels]
        return BaselineEvaluation(
            name=self.name,
            labels=labels,
            times=times,
            times_no_extraction=times,
            accuracies=accuracies,
            satisfaction_rate=_satisfaction(dataset, accuracies),
        )


class DynamicOracle:
    """The best landmark for each input individually (no extraction cost)."""

    name = "dynamic_oracle"

    def evaluate(self, dataset: PerformanceDataset, rows: Sequence[int]) -> BaselineEvaluation:
        """Per-row best landmark under the accuracy-then-time rule."""
        rows = np.asarray(rows, dtype=int)
        labels = dataset.labels()[rows]
        times = dataset.times[rows, labels]
        accuracies = dataset.accuracies[rows, labels]
        return BaselineEvaluation(
            name=self.name,
            labels=labels,
            times=times,
            times_no_extraction=times,
            accuracies=accuracies,
            satisfaction_rate=_satisfaction(dataset, accuracies),
        )


class OneLevelLearning:
    """The traditional one-level approach (nearest Level-1 centroid).

    Deployment-time classification extracts *all* predefined features
    (the method has no notion of extraction cost) and assigns the input to
    the nearest Level-1 cluster centroid; the input then runs with that
    cluster's landmark, regardless of whether that landmark meets the
    accuracy target on it.
    """

    name = "one_level"

    def __init__(self, level1: Level1Result) -> None:
        self._level1 = level1

    def evaluate(self, dataset: PerformanceDataset, rows: Sequence[int]) -> BaselineEvaluation:
        """Nearest-centroid assignment for the given rows."""
        rows = np.asarray(rows, dtype=int)
        level1 = self._level1
        normalized = level1.normalizer.transform(dataset.features[rows])
        clusters = assign_clusters(normalized, level1.centroids)
        labels = np.asarray(level1.cluster_to_landmark, dtype=int)[clusters]

        execution = dataset.times[rows, labels]
        extraction = dataset.extraction_costs[rows].sum(axis=1)
        accuracies = dataset.accuracies[rows, labels]
        return BaselineEvaluation(
            name=self.name,
            labels=labels,
            times=execution + extraction,
            times_no_extraction=execution,
            accuracies=accuracies,
            satisfaction_rate=_satisfaction(dataset, accuracies),
        )

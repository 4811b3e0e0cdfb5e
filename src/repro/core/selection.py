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
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.classifiers import CandidateClassifier
from repro.core.dataset import PerformanceDataset
from repro.ml.crossval import StratifiedKFold
from repro.runtime import Runtime, SharedRef, default_runtime

#: Registry token under which fold batches ship the dataset to workers once
#: per pool (see :class:`repro.runtime.SharedRef`).
_CV_DATASET_TOKEN = "selection.cv.dataset"
_CV_DATASET_REF = SharedRef(_CV_DATASET_TOKEN)

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


def _fit_and_evaluate_fold(
    classifier_factory: Callable[[], CandidateClassifier],
    dataset: PerformanceDataset,
    labels: np.ndarray,
    fold_train_rows: np.ndarray,
    fold_test_rows: np.ndarray,
) -> ClassifierEvaluation:
    """Task function: fit a fresh candidate on one fold and score its holdout."""
    classifier = classifier_factory().fit(dataset, fold_train_rows, labels)
    return evaluate_classifier(classifier, dataset, fold_test_rows)


def cross_validate_classifier(
    classifier_factory: Callable[[], CandidateClassifier],
    dataset: PerformanceDataset,
    labels: np.ndarray,
    rows: Sequence[int],
    n_splits: int = 10,
    seed: Optional[int] = 0,
    runtime: Optional[Runtime] = None,
) -> List[ClassifierEvaluation]:
    """Cross-validated efficacy of one candidate, one fold per task.

    The paper trains its exhaustive-subset classifiers under 10-fold
    cross-validation; this scores a candidate the same way, fanning the
    per-fold fit-and-score work over the runtime's executor.  Folds are
    stratified by label and the fold assignment depends only on ``seed``,
    so the returned per-fold evaluations are deterministic across
    executors.  For the process executor the factory must be picklable --
    a classifier class or a ``functools.partial`` of a module-level
    function (as :func:`repro.core.level2.run_level2` passes); a closure
    makes the batch fall back to serial execution.

    Args:
        classifier_factory: zero-argument callable returning a fresh
            unfitted candidate.
        dataset: the performance dataset.
        labels: the Level-2 labels (full-length, indexed by row).
        rows: the rows to cross-validate within (typically the train split).
        n_splits: fold count (clamped to the available row count).
        seed: fold-assignment seed.
        runtime: measurement runtime; defaults to the shared serial one.
    """
    active = runtime if runtime is not None else default_runtime()
    rows = np.asarray(rows, dtype=int)
    if rows.size < 2:
        raise ValueError("cross-validation needs at least 2 rows")
    n_splits = min(n_splits, rows.size)
    if n_splits < 2:
        raise ValueError("n_splits must be >= 2")
    splitter = StratifiedKFold(n_splits=n_splits, random_state=seed)
    # The dataset positional argument rides the shared-argument registry
    # (once per pool); the factory may still close over a dataset of its
    # own -- e.g. the ``functools.partial`` run_level2 passes -- which then
    # re-pickles with each fold chunk.  Folds are few, so that residual
    # cost is noise next to the candidate search's registry win.
    calls = [
        (
            _fit_and_evaluate_fold,
            (classifier_factory, _CV_DATASET_REF, labels, rows[fold_train], rows[fold_test]),
            {},
        )
        for fold_train, fold_test in splitter.split(labels[rows])
    ]
    return active.run_tasks(
        calls, phase="selection.crossval", shared={_CV_DATASET_TOKEN: dataset.without_inputs()}
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


def rank_classifiers(
    evaluations: Sequence[ClassifierEvaluation],
) -> List[ClassifierEvaluation]:
    """All evaluations sorted best-first under the selection rule."""
    return sorted(
        evaluations,
        key=lambda e: (not e.valid, -e.satisfaction_rate if not e.valid else 0.0, e.performance_cost),
    )

"""The candidate classifier zoo (paper Section 3.2, "Classifier Learning").

Four classifier families are implemented, matching the paper:

1. :class:`MaxAprioriClassifier` -- predicts the most common label, extracts
   no features.
2. :class:`SubsetDecisionTreeClassifier` -- a cost-sensitive decision tree
   over one candidate feature subset (at most one sampling level per
   property).  Level 2 instantiates one of these for every enumerated
   subset; this is the "Exhaustive Feature Subsets" family.
3. :class:`AllFeaturesClassifier` -- the member of that family that uses
   every property (called out separately in the paper).
4. :class:`IncrementalFeatureExaminationClassifier` -- acquires features one
   at a time in a fixed order, updating class posteriors, and stops as soon
   as one class exceeds a confidence threshold; feature extraction cost is
   therefore input dependent.

All classifiers share a uniform interface: they are fit on rows of a
:class:`~repro.core.dataset.PerformanceDataset` and can then

* predict labels for dataset rows (using the stored F/E matrices -- no
  re-extraction), returning per-row feature-extraction costs so the
  selection objective can charge them; and
* classify a brand-new input at deployment time, extracting exactly the
  features they need via the program's
  :class:`~repro.lang.features.FeatureSet`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import PerformanceDataset
from repro.lang.features import FeatureSet
from repro.ml.decision_tree import DecisionTreeClassifier, SplitMemo
from repro.ml.naive_bayes import DiscretizedNaiveBayes


@dataclass(frozen=True)
class ClassifierDescription:
    """Identity of a candidate classifier, for reports and Table-1 notes.

    Attributes:
        name: unique name within a Level-2 run.
        method: family name (``"max_apriori"``, ``"decision_tree"``,
            ``"all_features"``, ``"incremental"``).
        feature_names: the fully-qualified features the classifier may
            consult (for the incremental classifier, the ordered pool).
    """

    name: str
    method: str
    feature_names: Tuple[str, ...]


@dataclass
class DatasetPredictions:
    """Predictions of a classifier over dataset rows.

    Attributes:
        labels: predicted landmark index per row.
        extraction_costs: feature-extraction cost charged per row.
    """

    labels: np.ndarray
    extraction_costs: np.ndarray


class CandidateClassifier(abc.ABC):
    """Interface shared by every classifier family."""

    def __init__(self, description: ClassifierDescription) -> None:
        self.description = description

    @property
    def name(self) -> str:
        """Classifier name (unique within a Level-2 run)."""
        return self.description.name

    @property
    def feature_names(self) -> Tuple[str, ...]:
        """Features this classifier may consult."""
        return self.description.feature_names

    @abc.abstractmethod
    def fit(
        self,
        dataset: PerformanceDataset,
        rows: Sequence[int],
        labels: np.ndarray,
        split_memo: Optional[SplitMemo] = None,
    ) -> "CandidateClassifier":
        """Train on the given dataset rows (labels are the Level-2 labels).

        ``split_memo`` is the split-scan memo the trees of one search share
        (see :meth:`repro.ml.decision_tree.DecisionTreeClassifier.fit`);
        families that grow no tree ignore it.
        """

    @abc.abstractmethod
    def predict_rows(self, dataset: PerformanceDataset, rows: Sequence[int]) -> DatasetPredictions:
        """Predict labels (and charge extraction costs) for dataset rows."""

    @abc.abstractmethod
    def classify_input(self, program_input: Any, features: FeatureSet) -> Tuple[int, float]:
        """Classify a new input at deployment time.

        Returns:
            ``(landmark_index, feature_extraction_cost)``.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class MaxAprioriClassifier(CandidateClassifier):
    """Predict the empirically most common label; never extract features."""

    def __init__(self) -> None:
        super().__init__(
            ClassifierDescription(name="max_apriori", method="max_apriori", feature_names=())
        )
        self._label: int = 0

    def fit(
        self,
        dataset: PerformanceDataset,
        rows: Sequence[int],
        labels: np.ndarray,
        split_memo: Optional[SplitMemo] = None,
    ) -> "MaxAprioriClassifier":
        row_labels = labels[np.asarray(rows, dtype=int)]
        counts = np.bincount(row_labels, minlength=dataset.n_landmarks)
        self._label = int(np.argmax(counts))
        return self

    def predict_rows(self, dataset: PerformanceDataset, rows: Sequence[int]) -> DatasetPredictions:
        n = len(rows)
        return DatasetPredictions(
            labels=np.full(n, self._label, dtype=int),
            extraction_costs=np.zeros(n),
        )

    def classify_input(self, program_input: Any, features: FeatureSet) -> Tuple[int, float]:
        return self._label, 0.0


class SubsetDecisionTreeClassifier(CandidateClassifier):
    """Cost-sensitive decision tree over one candidate feature subset."""

    def __init__(
        self,
        feature_names: Sequence[str],
        cost_matrix: Optional[np.ndarray] = None,
        max_depth: int = 8,
        name: Optional[str] = None,
        method: str = "decision_tree",
    ) -> None:
        if not feature_names:
            raise ValueError("a decision-tree classifier needs at least one feature")
        super().__init__(
            ClassifierDescription(
                name=name or "dtree[" + ",".join(feature_names) + "]",
                method=method,
                feature_names=tuple(feature_names),
            )
        )
        self._cost_matrix = cost_matrix
        self._max_depth = max_depth
        self._tree: Optional[DecisionTreeClassifier] = None

    def fit(
        self,
        dataset: PerformanceDataset,
        rows: Sequence[int],
        labels: np.ndarray,
        split_memo: Optional[SplitMemo] = None,
    ) -> "SubsetDecisionTreeClassifier":
        rows = np.asarray(rows, dtype=int)
        X = dataset.feature_columns(self.feature_names)[rows]
        y = labels[rows]
        self._tree = DecisionTreeClassifier(
            max_depth=self._max_depth, cost_matrix=self._cost_matrix
        )
        self._tree.fit(X, y, split_memo=split_memo)
        return self

    def predict_rows(self, dataset: PerformanceDataset, rows: Sequence[int]) -> DatasetPredictions:
        if self._tree is None:
            raise RuntimeError("classifier is not fitted")
        rows = np.asarray(rows, dtype=int)
        X = dataset.feature_columns(self.feature_names)[rows]
        costs = dataset.extraction_cost_for(self.feature_names)[rows]
        return DatasetPredictions(labels=self._tree.predict(X), extraction_costs=costs)

    def classify_input(self, program_input: Any, features: FeatureSet) -> Tuple[int, float]:
        if self._tree is None:
            raise RuntimeError("classifier is not fitted")
        values, cost = features.extract_subset(program_input, self.feature_names)
        vector = np.array([values[name] for name in self.feature_names])
        return int(self._tree.predict_one(vector)), cost


class AllFeaturesClassifier(SubsetDecisionTreeClassifier):
    """The exhaustive-subset member that uses every property.

    The paper calls this classifier out separately; it uses all ``u`` unique
    properties (we take each property at its most accurate sampling level).
    """

    def __init__(
        self,
        dataset_feature_names: Sequence[str],
        cost_matrix: Optional[np.ndarray] = None,
        max_depth: int = 8,
    ) -> None:
        top_level: Dict[str, str] = {}
        for name in dataset_feature_names:
            prop, _, level = name.rpartition("@")
            current = top_level.get(prop)
            if current is None or int(level) > int(current.rpartition("@")[2]):
                top_level[prop] = name
        super().__init__(
            feature_names=list(top_level.values()),
            cost_matrix=cost_matrix,
            max_depth=max_depth,
            name="all_features",
            method="all_features",
        )


class IncrementalFeatureExaminationClassifier(CandidateClassifier):
    """Sequential feature acquisition with posterior-threshold early stopping.

    Features are consulted in a fixed order (cheapest first by default); after
    each feature the class posterior is updated via the discretized Bayes
    model, and classification stops as soon as the maximum posterior exceeds
    ``posterior_threshold``.  The per-input extraction cost therefore varies:
    easy inputs are classified after one cheap feature, ambiguous ones pay
    for more.
    """

    def __init__(
        self,
        feature_names: Sequence[str],
        posterior_threshold: float = 0.6,
        n_regions: int = 8,
        name: Optional[str] = None,
    ) -> None:
        if not feature_names:
            raise ValueError("the incremental classifier needs at least one feature")
        if not (0.0 < posterior_threshold <= 1.0):
            raise ValueError("posterior_threshold must be in (0, 1]")
        super().__init__(
            ClassifierDescription(
                name=name or "incremental[" + ",".join(feature_names) + "]",
                method="incremental",
                feature_names=tuple(feature_names),
            )
        )
        self.posterior_threshold = posterior_threshold
        self._n_regions = n_regions
        self._model: Optional[DiscretizedNaiveBayes] = None

    def fit(
        self,
        dataset: PerformanceDataset,
        rows: Sequence[int],
        labels: np.ndarray,
        split_memo: Optional[SplitMemo] = None,
    ) -> "IncrementalFeatureExaminationClassifier":
        rows = np.asarray(rows, dtype=int)
        X = dataset.feature_columns(self.feature_names)[rows]
        y = labels[rows]
        self._model = DiscretizedNaiveBayes(n_regions=self._n_regions)
        self._model.fit(X, y)
        return self

    def _classify_vector(
        self, vector: np.ndarray, per_feature_costs: np.ndarray
    ) -> Tuple[int, float, int]:
        """Classify one feature vector, returning (label, cost, n_features_used)."""
        assert self._model is not None
        observations: List[Tuple[int, float]] = []
        cost = 0.0
        posterior = self._model.posterior(observations)
        for index in range(len(self.feature_names)):
            observations.append((index, float(vector[index])))
            cost += float(per_feature_costs[index])
            posterior = self._model.posterior(observations)
            if float(posterior.max()) >= self.posterior_threshold:
                break
        return int(np.argmax(posterior)), cost, len(observations)

    def predict_rows(self, dataset: PerformanceDataset, rows: Sequence[int]) -> DatasetPredictions:
        """Vectorized sequential acquisition: one batched posterior update
        per feature, with rows dropping out of the active set as soon as
        their posterior clears the threshold.  Per-row results (label, cost)
        are bit-identical to :meth:`_classify_vector` -- the log-likelihood
        accumulation order and the per-step normalization are the same.
        """
        if self._model is None:
            raise RuntimeError("classifier is not fitted")
        rows = np.asarray(rows, dtype=int)
        X = dataset.feature_columns(self.feature_names)[rows]
        indices = [dataset.feature_index(name) for name in self.feature_names]
        costs_matrix = dataset.extraction_costs[np.ix_(rows, indices)]
        n = len(rows)
        n_features = len(self.feature_names)
        labels = np.zeros(n, dtype=int)
        costs = np.zeros(n)
        if n == 0:
            return DatasetPredictions(labels=labels, extraction_costs=costs)
        if n_features == 0:
            labels[:] = int(np.argmax(self._model.posterior([])))
            return DatasetPredictions(labels=labels, extraction_costs=costs)
        log_posterior = np.tile(self._model.log_prior(), (n, 1))
        active = np.arange(n)
        for step in range(n_features):
            log_posterior[active] += self._model.log_likelihood_batch(
                step, X[active, step]
            )
            costs[active] += costs_matrix[active, step]
            shifted = log_posterior[active]
            shifted = shifted - shifted.max(axis=1, keepdims=True)
            posterior = np.exp(shifted)
            posterior /= posterior.sum(axis=1, keepdims=True)
            done = posterior.max(axis=1) >= self.posterior_threshold
            if step == n_features - 1:
                done = np.ones_like(done)
            finished = np.flatnonzero(done)
            if finished.size:
                labels[active[finished]] = np.argmax(posterior[finished], axis=1)
                active = active[~done]
                if active.size == 0:
                    break
        return DatasetPredictions(labels=labels, extraction_costs=costs)

    def classify_input(self, program_input: Any, features: FeatureSet) -> Tuple[int, float]:
        if self._model is None:
            raise RuntimeError("classifier is not fitted")
        observations: List[Tuple[int, float]] = []
        cost = 0.0
        posterior = self._model.posterior(observations)
        for index, feature_name in enumerate(self.feature_names):
            values, extraction_cost = features.extract_subset(program_input, [feature_name])
            cost += extraction_cost
            observations.append((index, values[feature_name]))
            posterior = self._model.posterior(observations)
            if float(posterior.max()) >= self.posterior_threshold:
                break
        return int(np.argmax(posterior)), cost


def order_features_by_cost(dataset: PerformanceDataset, feature_names: Sequence[str]) -> List[str]:
    """Order features by their mean extraction cost (cheapest first).

    This is the default acquisition order for the incremental classifier.
    """
    means = {
        name: float(dataset.extraction_costs[:, dataset.feature_index(name)].mean())
        for name in feature_names
    }
    return sorted(feature_names, key=lambda name: means[name])

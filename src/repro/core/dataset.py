"""The Level-1 output datatable consumed by Level 2.

Section 3.2 of the paper: "we make each set of example inputs, their
features, feature extraction costs, execution times and accuracy scores for
each landmark configuration, a row of a dataset ... a datatable of 4-tuples
<F, T, A, E>".

:class:`PerformanceDataset` stores exactly that:

* ``features``          -- F, shape (N, M): every property at every level;
* ``times``             -- T, shape (N, K1): execution time of every landmark
  on every input;
* ``accuracies``        -- A, shape (N, K1): accuracy of every landmark on
  every input;
* ``extraction_costs``  -- E, shape (N, M): per-feature extraction cost.

It also knows how to compute the Level-2 labels (the best landmark per
input under the paper's accuracy-then-time rule) and how to slice itself
into train/test subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.core.inputs import InputSource
from repro.lang.accuracy import AccuracyRequirement
from repro.lang.config import Configuration


@dataclass
class PerformanceDataset:
    """The <F, T, A, E> datatable plus the landmark configurations.

    Attributes:
        feature_names: fully-qualified feature names (columns of F and E).
        features: F matrix, shape (N, M).
        extraction_costs: E matrix, shape (N, M).
        times: T matrix, shape (N, K1).
        accuracies: A matrix, shape (N, K1).
        landmarks: the K1 landmark configurations.
        requirement: the program's accuracy requirement (used for labelling).
        inputs: optionally, the raw input objects (kept by the pipeline for
            deployment-time evaluation; experiments that only need the
            matrices may drop them).  Either a plain list or a lazy
            :class:`~repro.core.inputs.InputSource` -- consumers index and
            iterate it the same way, but a source re-materializes inputs on
            demand instead of pinning the whole population in memory.
    """

    feature_names: List[str]
    features: np.ndarray
    extraction_costs: np.ndarray
    times: np.ndarray
    accuracies: np.ndarray
    landmarks: List[Configuration]
    requirement: AccuracyRequirement
    inputs: Optional[Sequence[Any]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.extraction_costs = np.asarray(self.extraction_costs, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        self.accuracies = np.asarray(self.accuracies, dtype=float)
        n, m = self.features.shape
        if self.extraction_costs.shape != (n, m):
            raise ValueError("extraction_costs shape mismatch")
        if self.times.shape[0] != n or self.accuracies.shape != self.times.shape:
            raise ValueError("times/accuracies shape mismatch")
        if self.times.shape[1] != len(self.landmarks):
            raise ValueError("number of landmarks does not match T columns")
        if len(self.feature_names) != m:
            raise ValueError("feature_names length does not match F columns")

    # -- basic properties -------------------------------------------------

    @property
    def n_inputs(self) -> int:
        """Number of rows N."""
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        """Number of features M."""
        return int(self.features.shape[1])

    @property
    def n_landmarks(self) -> int:
        """Number of landmark configurations K1."""
        return int(self.times.shape[1])

    def feature_index(self, feature_name: str) -> int:
        """Column index of a fully-qualified feature name."""
        try:
            return self.feature_names.index(feature_name)
        except ValueError as exc:
            raise KeyError(f"unknown feature {feature_name!r}") from exc

    def feature_columns(self, feature_names: Sequence[str]) -> np.ndarray:
        """Submatrix of F restricted to the named features."""
        indices = [self.feature_index(name) for name in feature_names]
        return self.features[:, indices]

    def extraction_cost_for(self, feature_names: Sequence[str]) -> np.ndarray:
        """Per-input total extraction cost of the named features (vector of length N)."""
        if not feature_names:
            return np.zeros(self.n_inputs)
        indices = [self.feature_index(name) for name in feature_names]
        return self.extraction_costs[:, indices].sum(axis=1)

    # -- labelling (cluster refinement) ------------------------------------

    def labels(self) -> np.ndarray:
        """Best landmark per input under the paper's accuracy-then-time rule.

        For time-only programs the label is simply ``argmin_j T[i, j]``.  For
        variable-accuracy programs the label is the fastest landmark among
        those meeting the accuracy threshold; if none meets it, the landmark
        with the maximum accuracy.
        """
        n = self.n_inputs
        labels = np.empty(n, dtype=int)
        if not self.requirement.enabled:
            return np.argmin(self.times, axis=1)
        threshold = self.requirement.accuracy_threshold
        for i in range(n):
            meets = self.accuracies[i] >= threshold
            if meets.any():
                candidates = np.flatnonzero(meets)
                labels[i] = int(candidates[np.argmin(self.times[i, candidates])])
            else:
                labels[i] = int(np.argmax(self.accuracies[i]))
        return labels

    def best_times(self) -> np.ndarray:
        """Per-input execution time of the label landmark (the dynamic oracle)."""
        labels = self.labels()
        return self.times[np.arange(self.n_inputs), labels]

    def without_inputs(self) -> "PerformanceDataset":
        """This datatable minus the raw inputs (matrices shared, memoized).

        The shape task batches ship to executor workers: Level-2 fitting
        and candidate scoring read only the matrices, so
        the raw inputs are dead weight on the wire -- potentially large,
        and, for a streamed run, a lazy source whose observer callback
        would not survive pickling under a spawn start method.  The view is
        memoized so every batch hands the executor the *identical* object
        and the process pool's shared-argument registry is not rebuilt per
        batch.
        """
        if self.inputs is None:
            return self
        stripped = self.__dict__.get("_without_inputs")
        if stripped is None:
            stripped = PerformanceDataset(
                feature_names=self.feature_names,
                features=self.features,
                extraction_costs=self.extraction_costs,
                times=self.times,
                accuracies=self.accuracies,
                landmarks=self.landmarks,
                requirement=self.requirement,
                inputs=None,
            )
            self.__dict__["_without_inputs"] = stripped
        return stripped

    # -- slicing ------------------------------------------------------------

    def subset(self, indices: Sequence[int]) -> "PerformanceDataset":
        """A new dataset restricted to the given row indices.

        A lazy input source is narrowed with a lazy view (no
        materialization); a plain input list is sliced eagerly.
        """
        indices = np.asarray(indices, dtype=int)
        if self.inputs is None:
            inputs = None
        elif isinstance(self.inputs, InputSource):
            inputs = self.inputs.select(int(i) for i in indices)
        else:
            inputs = [self.inputs[int(i)] for i in indices]
        return PerformanceDataset(
            feature_names=list(self.feature_names),
            features=self.features[indices],
            extraction_costs=self.extraction_costs[indices],
            times=self.times[indices],
            accuracies=self.accuracies[indices],
            landmarks=list(self.landmarks),
            requirement=self.requirement,
            inputs=inputs,
        )

    def restrict_landmarks(self, landmark_indices: Sequence[int]) -> "PerformanceDataset":
        """A new dataset keeping only the given landmark columns.

        Used by the Figure-8 experiment, which re-evaluates the system with
        random subsets of the trained landmarks.
        """
        landmark_indices = list(landmark_indices)
        if not landmark_indices:
            raise ValueError("need at least one landmark")
        return PerformanceDataset(
            feature_names=list(self.feature_names),
            features=self.features,
            extraction_costs=self.extraction_costs,
            times=self.times[:, landmark_indices],
            accuracies=self.accuracies[:, landmark_indices],
            landmarks=[self.landmarks[int(i)] for i in landmark_indices],
            requirement=self.requirement,
            inputs=self.inputs,
        )

    def __repr__(self) -> str:
        return (
            f"PerformanceDataset(N={self.n_inputs}, M={self.n_features}, "
            f"K1={self.n_landmarks})"
        )

"""The feedback log: per-request training signal of a served stream.

The paper trains its selector once, offline.  Closing the loop needs the
signal a live deployment produces anyway: for every served input, the
feature vector the classifier saw, the landmark it chose, and the cost and
accuracy the run actually observed.  :class:`FeedbackRecord` is one such
observation; :class:`FeedbackLog` is the bounded, append-only,
thread-safe buffer a drift replay appends to (one record per served
request) and the drift monitor reads windows from.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class FeedbackRecord:
    """One served request's training signal.

    Attributes:
        features: the full feature vector of the served input (every
            property at every sampling level, ordered like
            ``FeatureSet.feature_names()``) -- what the drift monitor
            compares against the training population.
        predicted_label: the label the classifier produced (after the
            one-off clamp :meth:`DeployedProgram.select_configuration`
            applies; a clamp is also counted in telemetry).  It is also
            the index of the landmark configuration that ran.
        observed_cost: the run's total deterministic cost -- execution
            work units plus the feature-extraction cost the selection
            charged.
        observed_accuracy: the run's accuracy score.
    """

    features: tuple
    predicted_label: int
    observed_cost: float
    observed_accuracy: float


class FeedbackLog:
    """Bounded, append-only, thread-safe buffer of feedback records.

    Appends past the capacity evict the oldest records (and count the
    evictions), so a long stream cannot grow memory without bound;
    the drift monitor only ever needs the most recent window anyway.
    ``total_appended`` keeps counting across evictions, which gives every
    record a stable global position -- the adaptation loop uses it to
    reason about "the last window" without caring what fell off the front.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._records: List[FeedbackRecord] = []
        #: Records evicted because the capacity was reached.
        self.evicted = 0
        #: Records ever appended (retained + evicted).
        self.total_appended = 0

    def append(self, record: FeedbackRecord) -> None:
        """Append one record, evicting the oldest past capacity."""
        with self._lock:
            self._records.append(record)
            self.total_appended += 1
            overflow = len(self._records) - self.capacity
            if overflow > 0:
                del self._records[:overflow]
                self.evicted += overflow

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[FeedbackRecord]:
        return iter(self.records())

    def records(self) -> List[FeedbackRecord]:
        """A snapshot copy of the retained records, oldest first."""
        with self._lock:
            return list(self._records)

    def window(self, n: int) -> List[FeedbackRecord]:
        """The most recent ``n`` retained records (fewer if the log is short)."""
        if n < 1:
            raise ValueError("window size must be >= 1")
        with self._lock:
            return list(self._records[-n:])

    def feature_matrix(self, records: Optional[Sequence[FeedbackRecord]] = None) -> np.ndarray:
        """The records' feature vectors stacked into an (n, M) array."""
        chosen = self.records() if records is None else list(records)
        if not chosen:
            return np.zeros((0, 0))
        return np.asarray([record.features for record in chosen], dtype=float)

    def __repr__(self) -> str:
        return (
            f"FeedbackLog(retained={len(self)}, capacity={self.capacity}, "
            f"evicted={self.evicted})"
        )

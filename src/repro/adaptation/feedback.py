"""The feedback log: per-request training signal captured at serving time.

The paper trains its selector once, offline.  Closing the loop needs the
signal a live deployment produces anyway: for every served input, the
feature vector the classifier saw, the landmark it chose, and the cost and
accuracy the run actually observed.  :class:`FeedbackRecord` is one such
observation; :class:`FeedbackLog` is the bounded, append-only,
thread-safe buffer the :class:`~repro.serving.server.SelectorServer`
appends to (one record per *execution* -- coalesced duplicates share
their job's record) and the adaptation loop consumes windows from.

Records are JSON-serializable, so a log can be persisted as a JSONL trace
file and replayed offline -- the drift monitor and the retrainer operate
identically on a live log and on a replayed trace.  When the served input
itself is needed again (retraining re-measures landmarks on the logged
window), a record can carry it: either as an ``input_spec`` naming an
index of a per-index seeded population (a few bytes, the preferred shape)
or as a base64-pickled payload.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.serving.protocol import decode_input


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
            applies; a clamp is also counted in telemetry).
        chosen_landmark: index of the landmark configuration that actually
            ran.  Equal to ``predicted_label`` today; kept separate so a
            future routing policy (fallbacks, canaries) stays expressible
            in the same schema.
        observed_cost: the run's total deterministic cost -- execution
            work units plus the feature-extraction cost the selection
            charged.
        observed_accuracy: the run's accuracy score.
        input_spec: optional wire-shaped input description (the serving
            protocol's ``index`` / ``pickle`` encodings) that lets a
            replayed trace re-materialize the input exactly.
    """

    features: tuple
    predicted_label: int
    chosen_landmark: int
    observed_cost: float
    observed_accuracy: float
    input_spec: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        """A plain-JSON view (one JSONL trace line)."""
        record: Dict[str, Any] = {
            "features": [float(value) for value in self.features],
            "predicted_label": int(self.predicted_label),
            "chosen_landmark": int(self.chosen_landmark),
            "observed_cost": float(self.observed_cost),
            "observed_accuracy": float(self.observed_accuracy),
        }
        if self.input_spec is not None:
            record["input_spec"] = self.input_spec
        return record

    @classmethod
    def from_json(cls, record: Dict[str, Any]) -> "FeedbackRecord":
        """Invert :meth:`to_json`.

        Raises:
            ValueError: on a structurally malformed record.
        """
        try:
            return cls(
                features=tuple(float(v) for v in record["features"]),
                predicted_label=int(record["predicted_label"]),
                chosen_landmark=int(record["chosen_landmark"]),
                observed_cost=float(record["observed_cost"]),
                observed_accuracy=float(record["observed_accuracy"]),
                input_spec=record.get("input_spec"),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed feedback record: {error}") from None

    def materialize_input(self) -> Any:
        """Rebuild the served input this record describes.

        Index-encoded specs rematerialize from the named per-index seeded
        population (bit-identical to what the server ran, by the input
        layer's purity contract); pickle-encoded specs decode their
        payload.

        Raises:
            ValueError: when the record carries no input spec, or the spec
                is malformed (the message names the field at fault).
        """
        spec = self.input_spec
        return decode_input(spec, spec.get("test") if isinstance(spec, dict) else None)


class FeedbackLog:
    """Bounded, append-only, thread-safe buffer of feedback records.

    Appends past the capacity evict the oldest records (and count the
    evictions), so a long-lived server cannot grow memory without bound;
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

    # -- trace persistence -------------------------------------------------

    def save_trace(self, path: str) -> int:
        """Write the retained records to ``path`` as JSONL; returns the count."""
        records = self.records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.to_json(), separators=(",", ":")))
                handle.write("\n")
        return len(records)

    @classmethod
    def load_trace(cls, path: str, capacity: Optional[int] = None) -> "FeedbackLog":
        """Rebuild a log from a JSONL trace file written by :meth:`save_trace`.

        Raises:
            ValueError: on a malformed trace line.
        """
        records: List[FeedbackRecord] = []
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(FeedbackRecord.from_json(json.loads(line)))
                except (json.JSONDecodeError, ValueError) as error:
                    raise ValueError(f"{path}:{lineno}: {error}") from None
        log = cls(capacity=capacity if capacity is not None else max(1, len(records)))
        for record in records:
            log.append(record)
        return log

    def __repr__(self) -> str:
        return (
            f"FeedbackLog(retained={len(self)}, capacity={self.capacity}, "
            f"evicted={self.evicted})"
        )

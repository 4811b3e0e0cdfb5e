"""The ``input_feature`` language keyword.

An *input feature* is a programmer-defined, side-effect-free function that
measures a domain-specific scalar property of a program's input (lines 4 and
19-39 of the paper's Figure 1).  Each feature extractor has a tunable
sampling *level*: higher levels examine more of the input and produce a more
accurate measurement at a higher extraction cost.  The paper uses ``z = 3``
sampling levels per property, giving ``M = u * z`` features for ``u``
properties; the two-level framework is responsible for selecting a subset of
those ``M`` features that pays for itself.

This module provides:

* :class:`FeatureExtractor` -- a named property with a cost-aware
  ``extract(input, level)`` method; concrete benchmarks subclass it or
  construct it from a plain function.
* :class:`FeatureSet` -- the ordered collection of a program's extractors,
  with helpers to compute full feature vectors (all properties at all
  levels), per-feature extraction costs, and named subsets.
* :class:`FeatureValue` -- a single measurement (value + cost + provenance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.lang.cost import CostCounter, scoped_counter

#: Default number of sampling levels per property (the paper uses 3).
DEFAULT_LEVELS = 3


@dataclass(frozen=True)
class FeatureValue:
    """A single feature measurement.

    Attributes:
        property_name: name of the property (e.g. ``"sortedness"``).
        level: sampling level used (0 = cheapest).
        value: the measured scalar.
        cost: work units charged while extracting it.
    """

    property_name: str
    level: int
    value: float
    cost: float

    @property
    def feature_name(self) -> str:
        """Fully-qualified feature name ``"<property>@<level>"``."""
        return f"{self.property_name}@{self.level}"


class FeatureExtractor:
    """A programmer-defined input property with multiple sampling levels.

    Args:
        name: the property name (unique within a program).
        func: callable ``func(input, level_fraction) -> float`` where
            ``level_fraction`` in (0, 1] controls how much of the input is
            examined.  The callable should charge its work to the ambient
            :mod:`repro.lang.cost` counter (benchmark extractors do).
        levels: number of sampling levels (``z`` in the paper).
        level_fractions: the fraction of the input examined at each level;
            defaults to a geometric ramp ending at 1.0.
    """

    def __init__(
        self,
        name: str,
        func: Callable[[Any, float], float],
        levels: int = DEFAULT_LEVELS,
        level_fractions: Optional[Sequence[float]] = None,
    ) -> None:
        if not name:
            raise ValueError("feature extractor name must be non-empty")
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.name = name
        self._func = func
        self.levels = levels
        if level_fractions is None:
            # Geometric ramp, e.g. for 3 levels: 0.05, 0.25, 1.0
            fractions = np.geomspace(0.05, 1.0, num=levels)
            level_fractions = [float(f) for f in fractions]
        if len(level_fractions) != levels:
            raise ValueError(
                f"{name}: need {levels} level fractions, got {len(level_fractions)}"
            )
        if any(not (0.0 < f <= 1.0) for f in level_fractions):
            raise ValueError(f"{name}: level fractions must be in (0, 1]")
        self.level_fractions: Tuple[float, ...] = tuple(level_fractions)

    def extract(self, value: Any, level: int) -> FeatureValue:
        """Measure the property of ``value`` at the given sampling level.

        The extraction cost is whatever the underlying function charges to
        the cost counter installed for the duration of the call.
        """
        if not (0 <= level < self.levels):
            raise ValueError(
                f"{self.name}: level {level} out of range [0, {self.levels})"
            )
        counter = CostCounter()
        with scoped_counter(counter):
            measured = float(self._func(value, self.level_fractions[level]))
        return FeatureValue(
            property_name=self.name,
            level=level,
            value=measured,
            cost=counter.total,
        )

    def feature_names(self) -> List[str]:
        """Names of the per-level features this property contributes."""
        return [f"{self.name}@{level}" for level in range(self.levels)]

    def __repr__(self) -> str:
        return f"FeatureExtractor({self.name!r}, levels={self.levels})"


class FeatureSet:
    """The ordered collection of a program's feature extractors."""

    def __init__(self, extractors: Optional[Iterable[FeatureExtractor]] = None) -> None:
        self._extractors: Dict[str, FeatureExtractor] = {}
        for extractor in extractors or []:
            self.add(extractor)

    def add(self, extractor: FeatureExtractor) -> None:
        """Register an extractor; property names must be unique."""
        if extractor.name in self._extractors:
            raise ValueError(f"duplicate feature extractor: {extractor.name}")
        self._extractors[extractor.name] = extractor

    def __len__(self) -> int:
        return len(self._extractors)

    def __iter__(self) -> Iterator[FeatureExtractor]:
        return iter(self._extractors.values())

    def __contains__(self, name: str) -> bool:
        return name in self._extractors

    def get(self, name: str) -> FeatureExtractor:
        """Return the extractor for property ``name`` (KeyError if unknown)."""
        return self._extractors[name]

    @property
    def property_names(self) -> List[str]:
        """Property names in registration order (``u`` properties)."""
        return list(self._extractors)

    def feature_names(self) -> List[str]:
        """All ``M = u * z`` fully-qualified feature names, property-major."""
        names: List[str] = []
        for extractor in self:
            names.extend(extractor.feature_names())
        return names

    def num_features(self) -> int:
        """Total number of (property, level) features, ``M`` in the paper."""
        return sum(extractor.levels for extractor in self)

    def extract_all(self, value: Any) -> List[FeatureValue]:
        """Extract every property at every level for one input.

        This is what Level 1 of the learning framework does for every
        training input; deployment-time classifiers extract only the subset
        they reference.
        """
        measurements: List[FeatureValue] = []
        for extractor in self:
            for level in range(extractor.levels):
                measurements.append(extractor.extract(value, level))
        return measurements

    def extract_vector(self, value: Any) -> Tuple[np.ndarray, np.ndarray]:
        """Extract all features and return ``(values, costs)`` arrays.

        Both arrays have length :meth:`num_features` and are ordered like
        :meth:`feature_names`.
        """
        measurements = self.extract_all(value)
        values = np.array([m.value for m in measurements], dtype=float)
        costs = np.array([m.cost for m in measurements], dtype=float)
        return values, costs

    def extract_batch(self, values: Sequence[Any]) -> Tuple[np.ndarray, np.ndarray]:
        """Extract all features for a whole chunk of inputs at once.

        Returns ``(features, costs)`` arrays of shape ``(n_inputs, M)`` with
        columns ordered like :meth:`feature_names` -- row ``i`` is
        bit-identical to ``extract_vector(values[i])``.

        The scoped cost counter is installed *once* for the whole chunk and
        reset between extractions (a reset counter accumulates exactly like a
        fresh one), so the per-call overhead of the scalar path -- a
        ContextVar install, a :class:`FeatureValue` allocation, and a
        list-to-array conversion per input per feature -- is paid once per
        chunk instead of ``n * M`` times.
        """
        values = list(values)
        n_inputs = len(values)
        n_features = self.num_features()
        features = np.empty((n_inputs, n_features), dtype=float)
        costs = np.empty((n_inputs, n_features), dtype=float)
        counter = CostCounter()
        with scoped_counter(counter):
            column = 0
            for extractor in self:
                func = extractor._func
                for level in range(extractor.levels):
                    fraction = extractor.level_fractions[level]
                    for row, value in enumerate(values):
                        counter.reset()
                        features[row, column] = float(func(value, fraction))
                        costs[row, column] = counter.total
                    column += 1
        return features, costs

    def extract_subset(self, value: Any, feature_names: Sequence[str]) -> Tuple[Dict[str, float], float]:
        """Extract only the named features, returning values and total cost.

        Args:
            value: the program input.
            feature_names: fully-qualified names (``"<property>@<level>"``).

        Returns:
            A pair of (name -> value mapping, total extraction cost).
        """
        results: Dict[str, float] = {}
        total_cost = 0.0
        for feature_name in feature_names:
            property_name, level = parse_feature_name(feature_name)
            measurement = self.get(property_name).extract(value, level)
            results[feature_name] = measurement.value
            total_cost += measurement.cost
        return results, total_cost


def parse_feature_name(feature_name: str) -> Tuple[str, int]:
    """Split a fully-qualified feature name into (property, level).

    Raises:
        ValueError: if the name is not of the form ``"<property>@<level>"``.
    """
    if "@" not in feature_name:
        raise ValueError(f"malformed feature name: {feature_name!r}")
    property_name, _, level_text = feature_name.rpartition("@")
    try:
        level = int(level_text)
    except ValueError as exc:
        raise ValueError(f"malformed feature level in {feature_name!r}") from exc
    return property_name, level

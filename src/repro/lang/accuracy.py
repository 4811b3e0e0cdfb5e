"""Variable accuracy support.

Five of the paper's six benchmarks are *variable accuracy* programs: different
algorithmic configurations produce outputs of different quality, and the
autotuner must meet a programmer-specified quality-of-service level.  The
paper's scheme (Section 3.3) uses two programmer-provided thresholds:

* the **accuracy threshold** ``H1`` -- a computation result is "accurate"
  when the benchmark's accuracy metric is at least ``H1``;
* the **satisfaction threshold** ``H2`` -- a configuration (or classifier) is
  acceptable only when at least an ``H2`` fraction of inputs are accurate
  (the paper uses 95% everywhere).

This module models the metric and the requirement, and provides the small
decision helpers used consistently by the autotuner (Level 1) and the
classifier-selection objective (Level 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence


@dataclass(frozen=True)
class AccuracyMetric:
    """A programmer-defined output-quality metric.

    Attributes:
        name: metric name, for reporting.
        func: callable ``func(input, output) -> float`` returning the accuracy
            score (higher is better).  For benchmarks without variable
            accuracy use :func:`always_accurate`.
        higher_is_better: retained for completeness; all paper metrics are
            "higher is better" after their log/ratio transformations.
    """

    name: str
    func: Callable[[Any, Any], float]
    higher_is_better: bool = True

    def score(self, program_input: Any, program_output: Any) -> float:
        """Evaluate the metric for one run."""
        return float(self.func(program_input, program_output))


@dataclass(frozen=True)
class AccuracyRequirement:
    """The paper's dual-threshold quality-of-service contract.

    Attributes:
        accuracy_threshold: ``H1`` -- minimum metric value for a single run
            to count as accurate.
        satisfaction_threshold: ``H2`` -- minimum fraction of accurate runs
            for a configuration/classifier to be acceptable (default 0.95 as
            in the paper's experiments).
        enabled: False for fixed-accuracy benchmarks such as Sort, in which
            case every run is trivially accurate.
    """

    accuracy_threshold: float = 0.0
    satisfaction_threshold: float = 0.95
    enabled: bool = True

    def run_is_accurate(self, accuracy: float) -> bool:
        """Is a single run's accuracy acceptable (``>= H1``)?"""
        if not self.enabled:
            return True
        return accuracy >= self.accuracy_threshold

    def satisfaction_rate(self, accuracies: Sequence[float]) -> float:
        """Fraction of runs meeting the accuracy threshold."""
        if not self.enabled:
            return 1.0
        values = list(accuracies)
        if not values:
            return 1.0
        accurate = sum(1 for a in values if a >= self.accuracy_threshold)
        return accurate / len(values)

    @staticmethod
    def disabled() -> "AccuracyRequirement":
        """A requirement that is always met (fixed-accuracy benchmarks)."""
        return AccuracyRequirement(enabled=False)


def _constant_one(_program_input: Any, _program_output: Any) -> float:
    """Module-level so fixed-accuracy programs stay picklable (process pool)."""
    return 1.0


def always_accurate(name: str = "exact") -> AccuracyMetric:
    """An accuracy metric that always returns 1.0.

    Used by fixed-accuracy benchmarks (Sort) so the rest of the system can
    treat every benchmark uniformly.
    """
    return AccuracyMetric(name=name, func=_constant_one)

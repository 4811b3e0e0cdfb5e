"""Drift detection: is the live input population still the one we trained on?

The paper's central claim is that the *input* determines the best
algorithmic choice; the dual of that claim is that a selector is only as
good as the input population it was trained on.  :class:`DriftMonitor`
watches the feature vectors of the most recent served requests and compares
their windowed distribution, feature by feature, against the frozen
training population -- PSI over reference-quantile bins plus the
two-sample KS statistic, both from :mod:`repro.ml.stats`.

A single noisy window must not trigger a (costly) retrain, so trips are
debounced two ways: ``patience`` consecutive over-threshold checks are
required before :meth:`check` reports drift, and after a retrain the
monitor holds a ``cooldown`` (checks during it never trip) while the new
model's population becomes the reference.  All state is plain counters --
the monitor is deterministic in the sequence of windows it sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.ml.stats import ks_statistic, population_stability_index


@dataclass(frozen=True)
class DriftConfig:
    """Thresholds and hysteresis for :class:`DriftMonitor`.

    Attributes:
        window: how many of the most recent served requests form the live
            sample compared against the reference.
        min_window: checks with fewer than this many requests are skipped
            (report ``insufficient``); a 3-request "window" says nothing.
        psi_threshold: per-feature PSI above this counts the feature as
            drifted (0.25 is the conventional "significant shift" line).
        ks_threshold: per-feature KS statistic above this counts the
            feature as drifted.
        min_drifted_features: how many features must individually drift
            for the window to count as drifted -- one jittery feature out
            of dozens should not page anyone.
        patience: consecutive drifted windows required before
            :meth:`DriftMonitor.check` reports ``drifted=True``.
        cooldown: number of checks after :meth:`DriftMonitor.notify_retrained`
            during which trips are suppressed while the fresh model's
            reference warms up.
        bins: quantile bins for PSI.
    """

    window: int = 64
    min_window: int = 16
    psi_threshold: float = 0.25
    ks_threshold: float = 0.35
    min_drifted_features: int = 2
    patience: int = 2
    cooldown: int = 4
    bins: int = 10

    def __post_init__(self) -> None:
        if self.window < 1 or self.min_window < 1:
            raise ValueError("window sizes must be >= 1")
        if self.min_window > self.window:
            raise ValueError("min_window cannot exceed window")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if self.min_drifted_features < 1:
            raise ValueError("min_drifted_features must be >= 1")


@dataclass(frozen=True)
class FeatureDrift:
    """Per-feature drift scores for one check."""

    feature: str
    psi: float
    ks: float
    drifted: bool


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one :meth:`DriftMonitor.check`.

    ``drifted`` is the debounced verdict (patience satisfied, not cooling
    down); ``window_drifted`` is the raw per-window verdict before
    hysteresis -- tests and telemetry want both.
    """

    drifted: bool
    window_drifted: bool
    insufficient: bool
    cooling_down: bool
    window_size: int
    consecutive: int
    features: List[FeatureDrift] = field(default_factory=list)

    @property
    def drifted_features(self) -> List[str]:
        return [score.feature for score in self.features if score.drifted]


class DriftMonitor:
    """Windowed per-feature drift detector with patience + cooldown.

    The reference is the feature matrix of the population the serving
    model was trained on; :meth:`set_reference` swaps it (the retrainer
    calls :meth:`notify_retrained`, which does that and starts the
    cooldown).  Constant reference columns are handled by the stats layer
    (PSI reads 0 while the live column sits at the same constant, high
    once it departs) rather than special-cased here.
    """

    def __init__(
        self,
        feature_names: Sequence[str],
        reference: np.ndarray,
        config: Optional[DriftConfig] = None,
    ) -> None:
        self.config = config or DriftConfig()
        self.feature_names = list(feature_names)
        self._reference = self._validated(reference)
        #: Consecutive window-drifted checks (patience accumulator).
        self.consecutive = 0
        #: Checks remaining in the post-retrain cooldown.
        self.cooldown_remaining = 0
        #: Counters for telemetry / reports.
        self.checks = 0
        self.trips = 0

    def _validated(self, reference: np.ndarray) -> np.ndarray:
        matrix = np.asarray(reference, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError("reference must be a non-empty (n, features) matrix")
        if matrix.shape[1] != len(self.feature_names):
            raise ValueError(
                f"reference has {matrix.shape[1]} columns for "
                f"{len(self.feature_names)} feature names"
            )
        return matrix

    @property
    def reference(self) -> np.ndarray:
        return self._reference

    def set_reference(self, reference: np.ndarray) -> None:
        """Replace the training population (does not touch hysteresis state)."""
        self._reference = self._validated(reference)

    def notify_retrained(self, reference: Optional[np.ndarray] = None) -> None:
        """A new model went live: reset patience, start the cooldown.

        Passing ``reference`` also freezes the new model's training
        population as the comparison baseline.
        """
        if reference is not None:
            self.set_reference(reference)
        self.consecutive = 0
        self.cooldown_remaining = self.config.cooldown

    def check(self, live: np.ndarray) -> DriftReport:
        """Score one live window against the reference.

        ``live`` is an (n, features) matrix -- typically the feature
        vectors of the last ``config.window`` served requests.
        """
        self.checks += 1
        matrix = np.asarray(live, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] < self.config.min_window:
            # Too little evidence either way; patience is left untouched so
            # a thin window between two drifted ones does not reset it.
            return DriftReport(
                drifted=False,
                window_drifted=False,
                insufficient=True,
                cooling_down=self.cooldown_remaining > 0,
                window_size=0 if matrix.ndim != 2 else int(matrix.shape[0]),
                consecutive=self.consecutive,
            )
        if matrix.shape[1] != len(self.feature_names):
            raise ValueError(
                f"live window has {matrix.shape[1]} columns for "
                f"{len(self.feature_names)} feature names"
            )

        scores: List[FeatureDrift] = []
        for column, name in enumerate(self.feature_names):
            reference_column = self._reference[:, column]
            live_column = matrix[:, column]
            psi = population_stability_index(
                reference_column, live_column, bins=self.config.bins
            )
            ks = ks_statistic(reference_column, live_column)
            scores.append(
                FeatureDrift(
                    feature=name,
                    psi=psi,
                    ks=ks,
                    drifted=psi > self.config.psi_threshold
                    or ks > self.config.ks_threshold,
                )
            )

        drifted_count = sum(1 for score in scores if score.drifted)
        window_drifted = drifted_count >= self.config.min_drifted_features

        cooling_down = self.cooldown_remaining > 0
        if cooling_down:
            self.cooldown_remaining -= 1
            # Cooldown absorbs the window entirely: no patience accrual,
            # so a retrain's own transition window cannot re-trip.
            return DriftReport(
                drifted=False,
                window_drifted=window_drifted,
                insufficient=False,
                cooling_down=True,
                window_size=int(matrix.shape[0]),
                consecutive=self.consecutive,
                features=scores,
            )

        if window_drifted:
            self.consecutive += 1
        else:
            self.consecutive = 0

        drifted = self.consecutive >= self.config.patience
        if drifted:
            self.trips += 1
        return DriftReport(
            drifted=drifted,
            window_drifted=window_drifted,
            insufficient=False,
            cooling_down=False,
            window_size=int(matrix.shape[0]),
            consecutive=self.consecutive,
            features=scores,
        )

"""Scripted drift scenarios and the offline adaptation replay harness.

The adaptation loop's correctness claim -- "a population shift trips the
monitor, retraining hot-swaps a better model, and regret drops" -- is only
testable if the shift itself is reproducible.  This module scripts it:

* :class:`MixtureInputSource` -- a lazy
  :class:`~repro.core.inputs.InputSource` whose population is a sequence
  of *phases*, each a weighted mixture over named generator families.
  Input *i* is a pure function of (scenario name, seed, i): one
  ``per_index_rng`` stream first draws the family by the phase's weights,
  then generates the item.  Shifting the weights between phases is the
  drift.
* :class:`DriftScenario` -- the full script: the training mixture the
  initial model learns, the phased serving stream, and the monitor /
  retrainer knobs.  :func:`sort_drift_scenario` builds the canonical one:
  train on sorted-ish lists, then shift the stream to heavy-duplicate and
  reverse-sorted lists the initial landmark set was never tuned for.
* :func:`replay_scenario` -- serve the stream twice through a
  :class:`~repro.serving.registry.ModelRegistry` (once with the
  adaptation loop live, once frozen on the initial model), then score
  both passes against the best *fixed* landmark in hindsight.  The
  difference is the selector's regret; adaptation has to strictly reduce
  it on the shifted tail, and the whole report must be bit-identical
  across executors (every cost is a deterministic work-unit count).

Everything runs through the measurement :class:`~repro.runtime.Runtime`,
so the replay reuses the run cache (the frozen pass re-serves inputs the
adaptive pass already executed) and fans out under any executor backend.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.benchmarks_suite import get_benchmark
from repro.benchmarks_suite.sort import generators as sort_generators
from repro.core.inputs import InputSource, per_index_rng
from repro.core.level1 import Level1Config, measure_performance
from repro.core.level2 import Level2Config
from repro.core.pipeline import InputAwareLearning, TrainingResult
from repro.runtime import Runtime, default_runtime
from repro.serving.registry import ModelRegistry

from repro.adaptation.drift import DriftConfig, DriftMonitor
from repro.adaptation.retrainer import RetrainConfig, Retrainer

#: The sort benchmark's generator families, by name -- the building blocks
#: of every sort drift scenario.
SORT_FAMILIES: Dict[str, Callable[[np.random.Generator], np.ndarray]] = {
    family.__name__: family for family in sort_generators.SYNTHETIC_FAMILIES
}


@dataclass(frozen=True)
class MixturePhase:
    """``n`` inputs drawn from a weighted mixture of generator families."""

    n: int
    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("phase length must be >= 0")
        if not self.weights:
            raise ValueError("phase needs at least one family weight")
        if any(weight < 0 for weight in self.weights.values()):
            raise ValueError("family weights must be >= 0")
        if sum(self.weights.values()) <= 0:
            raise ValueError("family weights must sum to > 0")


class MixtureInputSource(InputSource):
    """A phased family-mixture population, materialized per index.

    Input *i* belongs to the phase its index falls in; its RNG stream is
    ``per_index_rng(seed, i, "adapt.scenario", name)``, from which the
    family is drawn (by the phase's normalized weights, over the sorted
    family names -- insertion order of the mapping does not matter) and
    the item generated.  Purity in (name, seed, i) is what makes a
    scenario replayable bit-identically anywhere.
    """

    def __init__(
        self,
        phases: Sequence[MixturePhase],
        families: Mapping[str, Callable[[np.random.Generator], Any]],
        seed: int = 0,
        name: str = "mixture",
    ) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        for phase in phases:
            unknown = sorted(set(phase.weights) - set(families))
            if unknown:
                raise KeyError(f"unknown families in phase weights: {unknown}")
        self.phases = list(phases)
        self.families = dict(families)
        self.seed = int(seed)
        self.name = name
        self._offsets: List[int] = []
        total = 0
        for phase in self.phases:
            self._offsets.append(total)
            total += phase.n
        self._n = total

    def __len__(self) -> int:
        return self._n

    def phase_bounds(self) -> List[Tuple[int, int]]:
        """Per phase, its [start, end) index range in the population."""
        return [
            (offset, offset + phase.n)
            for offset, phase in zip(self._offsets, self.phases)
        ]

    def phase_of(self, index: int) -> int:
        """Which phase the given input index belongs to."""
        if not 0 <= index < self._n:
            raise IndexError(index)
        position = int(np.searchsorted(self._offsets, index, side="right")) - 1
        # Skip backwards over zero-length phases sharing the offset.
        while self.phases[position].n == 0:
            position -= 1
        return position

    def materialize(self, index: int) -> Any:
        phase = self.phases[self.phase_of(index)]
        rng = per_index_rng(self.seed, index, "adapt.scenario", self.name)
        names = sorted(phase.weights)
        probabilities = np.asarray([phase.weights[name] for name in names], dtype=float)
        probabilities /= probabilities.sum()
        family = names[int(rng.choice(len(names), p=probabilities))]
        return self.families[family](rng)

    def __repr__(self) -> str:
        return (
            f"MixtureInputSource({self._n}, name={self.name!r}, "
            f"phases={len(self.phases)}, seed={self.seed})"
        )


@dataclass(frozen=True)
class DriftScenario:
    """One fully scripted drift experiment.

    Attributes:
        name: scenario label; namespaces every RNG stream.
        test: the Table-1 benchmark test being served.
        families: named generator families the mixtures draw from.
        training: the mixture the initial model is trained on.
        n_training: size of the initial training population.
        phases: the serving stream's phased mixture (the drift script).
        check_every: run a drift check after this many served requests.
        drift: monitor thresholds and hysteresis.
        retrain: retraining knobs.
        training_clusters / tuner_generations / tuner_population /
            tuning_neighbors / max_subsets: budget of the *initial*
            training run.
        seed: the single seed every stream derives from.
    """

    name: str
    test: str
    families: Mapping[str, Callable[[np.random.Generator], Any]]
    training: Mapping[str, float]
    n_training: int
    phases: Tuple[MixturePhase, ...]
    check_every: int = 16
    drift: DriftConfig = field(default_factory=DriftConfig)
    retrain: RetrainConfig = field(default_factory=RetrainConfig)
    training_clusters: int = 3
    tuner_generations: int = 2
    tuner_population: int = 6
    tuning_neighbors: int = 2
    max_subsets: int = 16
    seed: int = 0

    def training_source(self) -> MixtureInputSource:
        return MixtureInputSource(
            [MixturePhase(self.n_training, self.training)],
            self.families,
            seed=self.seed,
            name=f"{self.name}/train",
        )

    def serving_source(self) -> MixtureInputSource:
        return MixtureInputSource(
            list(self.phases),
            self.families,
            seed=self.seed,
            name=f"{self.name}/serve",
        )


#: Scale presets for the canonical sort scenario: (n_training, phase
#: lengths); drift-window/check cadence scale with them.
_SORT_SCALES: Dict[str, Dict[str, int]] = {
    "small": {"n_training": 24, "steady": 32, "shifted": 64, "window": 32},
    "medium": {"n_training": 36, "steady": 48, "shifted": 96, "window": 48},
    "large": {"n_training": 48, "steady": 64, "shifted": 160, "window": 64},
}

#: The population the initial sort model is trained on: order-friendly
#: lists (sorted, nearly sorted, some noise) -- no heavy duplication.
_SORT_TRAINING_WEIGHTS: Dict[str, float] = {
    "sorted_ascending": 0.35,
    "almost_sorted": 0.35,
    "uniform_random": 0.30,
}

#: The post-shift population: duplicate-heavy and reverse-ordered lists
#: the initial landmark set was never autotuned for.
_SORT_SHIFTED_WEIGHTS: Dict[str, float] = {
    "heavy_duplicates": 0.50,
    "reverse_sorted": 0.30,
    "narrow_range": 0.20,
}


def sort_drift_scenario(scale: str = "small", seed: int = 0) -> DriftScenario:
    """The canonical scenario: a sort service drifts into duplicate-heavy data.

    Phase 1 replays the training mixture (steady state -- the monitor must
    stay quiet); phase 2 switches to the shifted mixture (the monitor must
    trip, and retraining must find landmark configurations -- e.g. radix
    variants -- that the sorted-ish training population never asked for).

    Raises:
        KeyError: on an unknown scale name.
    """
    if scale not in _SORT_SCALES:
        raise KeyError(
            f"unknown scale {scale!r}; available: {sorted(_SORT_SCALES)}"
        )
    sizes = _SORT_SCALES[scale]
    window = sizes["window"]
    return DriftScenario(
        name=f"sort-shift-{scale}",
        test="sort2",
        families=SORT_FAMILIES,
        training=_SORT_TRAINING_WEIGHTS,
        n_training=sizes["n_training"],
        phases=(
            MixturePhase(sizes["steady"], _SORT_TRAINING_WEIGHTS),
            MixturePhase(sizes["shifted"], _SORT_SHIFTED_WEIGHTS),
        ),
        check_every=window // 2,
        # Thresholds sized for small windows: with ~32-64 live samples
        # against a few-dozen-input reference, per-feature PSI has a noise
        # floor of a few tenths (measured ~0.2 for same-mixture windows at
        # the small scale), while a genuine family shift lands > 2.  Demand
        # a full window, strong per-feature evidence, and 3 features
        # agreeing -- the steady phase stays quiet, the shift still trips
        # within one patience cycle.
        drift=DriftConfig(
            window=window,
            min_window=window,
            psi_threshold=1.0,
            ks_threshold=0.5,
            min_drifted_features=3,
            patience=2,
            cooldown=2,
            bins=5,
        ),
        retrain=RetrainConfig(
            n_clusters=3,
            tuner_generations=2,
            tuner_population=6,
            tuning_neighbors=2,
            max_subsets=16,
            seed=seed,
        ),
        seed=seed,
    )


SCENARIOS: Dict[str, Callable[[str, int], DriftScenario]] = {
    "sort-shift": sort_drift_scenario,
}


def get_scenario(name: str, scale: str = "small", seed: int = 0) -> DriftScenario:
    """Look up a named scenario at the given scale.

    Raises:
        KeyError: on an unknown scenario name.
    """
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    return SCENARIOS[name](scale, seed)


@dataclass
class ServePass:
    """One pass of the serving stream through the registry."""

    served_costs: List[float]
    served_labels: List[int]
    drift_checks: int
    drift_trips: int
    drift_events: List[Dict[str, Any]]
    swaps: List[Dict[str, Any]]
    retrains: int
    retrains_rejected: int
    retrains_failed: int
    final_version: int
    final_landmark_count: int
    registry: ModelRegistry


@dataclass
class ReplayReport:
    """Everything one :func:`replay_scenario` produced, JSON-ready."""

    scenario: str
    test: str
    seed: int
    n_training: int
    n_requests: int
    phase_bounds: List[Tuple[int, int]]
    adapted: ServePass
    frozen: ServePass
    hindsight_landmark: int
    hindsight_cost_total: float
    hindsight_cost_shifted: float
    regret_adapted_total: float
    regret_frozen_total: float
    regret_adapted_shifted: float
    regret_frozen_shifted: float

    @property
    def shifted_improvement(self) -> float:
        """Regret removed on the shifted tail by adapting (positive = win)."""
        return self.regret_frozen_shifted - self.regret_adapted_shifted

    def to_json(self) -> Dict[str, Any]:
        def passes(serve: ServePass) -> Dict[str, Any]:
            return {
                "served_cost_total": float(sum(serve.served_costs)),
                "served_costs": [float(cost) for cost in serve.served_costs],
                "served_labels": [int(label) for label in serve.served_labels],
                "drift_checks": serve.drift_checks,
                "drift_trips": serve.drift_trips,
                "drift_events": serve.drift_events,
                "swaps": serve.swaps,
                "retrains": serve.retrains,
                "retrains_rejected": serve.retrains_rejected,
                "retrains_failed": serve.retrains_failed,
                "final_version": serve.final_version,
                "final_landmark_count": serve.final_landmark_count,
            }

        return {
            "scenario": self.scenario,
            "test": self.test,
            "seed": self.seed,
            "n_training": self.n_training,
            "n_requests": self.n_requests,
            "phase_bounds": [list(bounds) for bounds in self.phase_bounds],
            "adapted": passes(self.adapted),
            "frozen": passes(self.frozen),
            "hindsight": {
                "landmark": self.hindsight_landmark,
                "cost_total": self.hindsight_cost_total,
                "cost_shifted": self.hindsight_cost_shifted,
            },
            "regret": {
                "adapted_total": self.regret_adapted_total,
                "frozen_total": self.regret_frozen_total,
                "adapted_shifted": self.regret_adapted_shifted,
                "frozen_shifted": self.regret_frozen_shifted,
                "shifted_improvement": self.shifted_improvement,
            },
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON -- the bit-identity fingerprint."""
        canonical = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _train_initial_model(
    scenario: DriftScenario, runtime: Optional[Runtime]
) -> TrainingResult:
    variant = get_benchmark(scenario.test)
    program = variant.benchmark.program
    inputs = scenario.training_source().materialized()
    learner = InputAwareLearning(
        level1_config=Level1Config(
            n_clusters=scenario.training_clusters,
            seed=scenario.seed,
            tuner_generations=scenario.tuner_generations,
            tuner_population=scenario.tuner_population,
            tuning_neighbors=scenario.tuning_neighbors,
        ),
        level2_config=Level2Config(
            max_subsets=scenario.max_subsets, seed=scenario.seed
        ),
        test_fraction=0.5,
        seed=scenario.seed,
        runtime=runtime,
    )
    return learner.fit(program, inputs)


def _serve_stream(
    scenario: DriftScenario,
    runtime: Optional[Runtime],
    training: TrainingResult,
    adapt: bool,
) -> ServePass:
    """Serve the scenario stream once from the initial model ``training``
    made; with ``adapt`` the loop is live."""
    program = training.deployed.program
    registry = ModelRegistry()
    registry.publish(scenario.test, training.deployed)
    monitor = DriftMonitor(
        feature_names=program.features.feature_names(),
        reference=training.dataset.features,
        config=scenario.drift,
    )
    retrainer = Retrainer(
        program,
        registry,
        scenario.test,
        config=scenario.retrain,
        runtime=runtime,
    )
    # The last ``drift.window`` served requests, as (input, feature
    # vector): the monitor checks the vectors, a retrain runs on the inputs.
    window: Deque[Tuple[Any, np.ndarray]] = deque(maxlen=scenario.drift.window)
    stream = scenario.serving_source()

    served_costs: List[float] = []
    served_labels: List[int] = []
    drift_events: List[Dict[str, Any]] = []
    swaps: List[Dict[str, Any]] = []
    checks = trips = retrains = rejected = failed = 0

    for index in range(len(stream)):
        program_input = stream.materialize(index)
        entry = registry.get(scenario.test)
        outcome = entry.deployed.run(program_input)
        served_costs.append(float(outcome.total_time))
        served_labels.append(int(outcome.landmark_index))
        if not adapt:
            continue

        # Only the live loop reads the window, so the frozen pass extracts
        # no features.
        values, _ = program.features.extract_vector(program_input)
        window.append((program_input, values))
        if (index + 1) % scenario.check_every != 0:
            continue
        report = monitor.check(np.asarray([vector for _, vector in window]))
        checks += 1
        drift_events.append(
            {
                "at": index + 1,
                "drifted": report.drifted,
                "window_drifted": report.window_drifted,
                "cooling_down": report.cooling_down,
                "insufficient": report.insufficient,
                "drifted_features": report.drifted_features,
            }
        )
        if not report.drifted:
            continue
        trips += 1
        retrains += 1
        result = retrainer.retrain_on_inputs([served for served, _ in window])
        swaps.append(
            {
                "at": index + 1,
                "swapped": result.swapped,
                "reason": result.reason,
                "version": result.entry.version,
                "old_cost": result.old_cost,
                "new_cost": result.new_cost,
                "landmarks_before": result.landmarks_before,
                "landmarks_after": result.landmarks_after,
            }
        )
        if result.swapped:
            monitor.notify_retrained(result.dataset.features)
        else:
            rejected += result.reason == "rejected"
            failed += result.reason.startswith("failed")
            # Back off either way: re-running the same retrain on the next
            # check would redo the tuning work just to fail identically.
            monitor.notify_retrained()

    final = registry.get(scenario.test)
    return ServePass(
        served_costs=served_costs,
        served_labels=served_labels,
        drift_checks=checks,
        drift_trips=trips,
        drift_events=drift_events,
        swaps=swaps,
        retrains=retrains,
        retrains_rejected=rejected,
        retrains_failed=failed,
        final_version=final.version,
        final_landmark_count=len(final.deployed.landmarks),
        registry=registry,
    )


def replay_scenario(
    scenario: DriftScenario, runtime: Optional[Runtime] = None
) -> ReplayReport:
    """Run the full before/after experiment and score the regret.

    The initial model is trained once.  Two serving passes start from it
    -- adaptation live, then frozen on it -- and share one runtime, so the
    frozen pass recalls from the cache every run the adaptive pass already
    took.  Both are scored against the best fixed landmark in hindsight,
    drawn from the adaptive pass's *final* landmark set (a superset of the
    initial one after a swap, so the hindsight baseline is at least as
    strong as any model that served); regret is served cost minus that
    fixed selector's cost.
    """
    runtime = runtime if runtime is not None else default_runtime()
    variant = get_benchmark(scenario.test)
    program = variant.benchmark.program

    with runtime.telemetry.phase("adapt.replay.train"):
        training = _train_initial_model(scenario, runtime)
    with runtime.telemetry.phase("adapt.replay.adapted"):
        adapted = _serve_stream(scenario, runtime, training, adapt=True)
    with runtime.telemetry.phase("adapt.replay.frozen"):
        frozen = _serve_stream(scenario, runtime, training, adapt=False)

    stream = scenario.serving_source()
    hindsight_landmarks = adapted.registry.get(scenario.test).deployed.landmarks
    with runtime.telemetry.phase("adapt.replay.hindsight"):
        measured = measure_performance(
            program, stream, hindsight_landmarks, runtime=runtime
        )
    times = measured["times"]
    totals = times.sum(axis=0)
    best_landmark = int(np.argmin(totals))

    shifted_start, n_requests = stream.phase_bounds()[-1][0], len(stream)
    shifted_totals = times[shifted_start:].sum(axis=0)
    hindsight_total = float(totals[best_landmark])
    hindsight_shifted = float(shifted_totals[best_landmark])

    def regret(costs: Sequence[float], start: int, hindsight: float) -> float:
        return float(sum(costs[start:]) - hindsight)

    return ReplayReport(
        scenario=scenario.name,
        test=scenario.test,
        seed=scenario.seed,
        n_training=scenario.n_training,
        n_requests=n_requests,
        phase_bounds=stream.phase_bounds(),
        adapted=adapted,
        frozen=frozen,
        hindsight_landmark=best_landmark,
        hindsight_cost_total=hindsight_total,
        hindsight_cost_shifted=hindsight_shifted,
        regret_adapted_total=regret(adapted.served_costs, 0, hindsight_total),
        regret_frozen_total=regret(frozen.served_costs, 0, hindsight_total),
        regret_adapted_shifted=regret(
            adapted.served_costs, shifted_start, hindsight_shifted
        ),
        regret_frozen_shifted=regret(
            frozen.served_costs, shifted_start, hindsight_shifted
        ),
    )

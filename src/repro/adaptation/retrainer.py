"""Live retraining: re-tune landmarks for the drifted region and hot-swap.

When the :class:`~repro.adaptation.drift.DriftMonitor` trips, the serving
model's landmark set was tuned for a population that no longer arrives.
:class:`Retrainer` runs the paper's two-level pipeline again, but scoped
to the logged window that exhibits the drift:

1. cluster the window's feature vectors and autotune a landmark per
   cluster (:func:`~repro.core.level1.create_landmarks`) -- these are the
   configurations the *new* population wants;
2. take the union of the serving landmarks and the new ones, **serving
   landmarks first** -- the old classifier's labels stay valid column
   indices into the union-ordered matrices, which is what makes the
   old-vs-new validation below an apples-to-apples comparison;
3. measure every union landmark on every window input
   (:func:`~repro.core.level1.measure_performance` -- this is the step
   that rides :meth:`Runtime.measure`, so it streams, caches, and fans
   out over whatever executor the runtime has);
4. retrain the Level-2 classifier zoo on the window dataset and select a
   production classifier (:func:`~repro.core.level2.run_level2`);
5. **validate before swapping**: score the old and the candidate
   classifier on the same held-out window rows; a candidate that is not
   strictly cheaper is rejected and the old model keeps serving;
6. publish the new :class:`~repro.core.pipeline.DeployedProgram` through
   the :class:`~repro.serving.registry.ModelRegistry` -- atomic by the
   registry's immutable-snapshot contract, so in-flight requests finish
   on the model they resolved and no request ever sees a half-swap.

Any exception inside the pipeline is contained: the old model keeps
serving, the failure is counted in telemetry
(``adapt_retrain_failures``), and no partial state reaches the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.core.level1 import (
    Level1Config,
    cluster_inputs,
    create_landmarks,
    extract_features,
    measure_performance,
    representative_input_indices,
)
from repro.core.level2 import Level2Config, run_level2
from repro.core.dataset import PerformanceDataset
from repro.core.pipeline import DeployedProgram
from repro.core.selection import evaluate_classifier
from repro.lang.program import PetaBricksProgram
from repro.ml.crossval import train_test_split
from repro.runtime import Runtime, default_runtime
from repro.serving.registry import ModelEntry, ModelRegistry


@dataclass(frozen=True)
class RetrainConfig:
    """Knobs of one retraining pass.

    Attributes:
        n_clusters: how many clusters (hence candidate landmarks) to tune
            on the drifted window -- small, because the window is a slice
            of the population, not all of it.
        tuner_generations / tuner_population / tuning_neighbors: autotuner
            budget per window cluster (see :class:`Level1Config`).
        test_fraction: held-out fraction of the window used both to select
            the Level-2 production classifier and to validate old vs new.
        max_subsets: Level-2 feature-subset cap (kept small: retraining
            happens on the serving path's clock, not offline).
        cost_weight: Level-2 cost-matrix lambda.
        seed: seed for clustering, tuning, and the split -- a retrain is
            deterministic in (window, seed).
    """

    n_clusters: int = 3
    tuner_generations: int = 3
    tuner_population: int = 6
    tuning_neighbors: int = 2
    test_fraction: float = 0.5
    max_subsets: int = 32
    cost_weight: float = 0.5
    seed: int = 0

    def level1_config(self) -> Level1Config:
        return Level1Config(
            n_clusters=self.n_clusters,
            seed=self.seed,
            tuner_generations=self.tuner_generations,
            tuner_population=self.tuner_population,
            tuning_neighbors=self.tuning_neighbors,
        )

    def level2_config(self) -> Level2Config:
        return Level2Config(
            accuracy_cost_weight=self.cost_weight,
            max_subsets=self.max_subsets,
            seed=self.seed,
        )


@dataclass
class RetrainOutcome:
    """What one :meth:`Retrainer.retrain_on_inputs` call did.

    Attributes:
        swapped: True when a new model was published.
        reason: ``"swapped"``, ``"rejected"`` (candidate not better), or
            ``"failed: <error>"`` (pipeline raised; old model untouched).
        old_cost / new_cost: mean per-input validation cost of the serving
            and the candidate classifier on the held-out window rows
            (``inf`` marks an invalid classifier; ``None`` when the
            pipeline failed before validation).
        entry: the registry entry that is serving after the call -- the
            new one on a swap, the untouched old one otherwise.
        landmarks_before / landmarks_after: union set size bookkeeping
            (equal when every tuned landmark already existed).
        window_size: inputs the retrain saw.
        window_features: the window's feature matrix -- the caller hands
            it to :meth:`DriftMonitor.notify_retrained` as the new
            reference population after a swap.
        dataset: the window performance dataset (None on failure).
    """

    swapped: bool
    reason: str
    entry: ModelEntry
    old_cost: Optional[float] = None
    new_cost: Optional[float] = None
    landmarks_before: int = 0
    landmarks_after: int = 0
    window_size: int = 0
    window_features: Optional[np.ndarray] = None
    dataset: Optional[PerformanceDataset] = None


class Retrainer:
    """Re-tunes, revalidates, and hot-swaps one test's serving model."""

    def __init__(
        self,
        program: PetaBricksProgram,
        registry: ModelRegistry,
        test: str,
        config: Optional[RetrainConfig] = None,
        runtime: Optional[Runtime] = None,
    ) -> None:
        self.program = program
        self.registry = registry
        self.test = test
        self.config = config or RetrainConfig()
        self.runtime = runtime

    def _runtime(self) -> Runtime:
        return self.runtime if self.runtime is not None else default_runtime()

    def retrain_on_inputs(self, inputs: Sequence[Any]) -> RetrainOutcome:
        """Run the re-tune / revalidate / hot-swap pipeline on a window.

        Never raises for pipeline errors -- failure leaves the registry
        untouched and is reported in the outcome and in telemetry.
        """
        runtime = self._runtime()
        current = self.registry.get(self.test)
        runtime.telemetry.count("adapt_retrains")
        try:
            outcome = self._retrain_validated(list(inputs), current, runtime)
        except Exception as error:  # contained: old model keeps serving
            runtime.telemetry.count("adapt_retrain_failures")
            return RetrainOutcome(
                swapped=False,
                reason=f"failed: {error}",
                entry=self.registry.get(self.test),
                window_size=len(inputs),
            )
        if outcome.swapped:
            runtime.telemetry.count("adapt_swaps")
        else:
            runtime.telemetry.count("adapt_retrains_rejected")
        return outcome

    def _retrain_validated(
        self,
        inputs: List[Any],
        current: ModelEntry,
        runtime: Runtime,
    ) -> RetrainOutcome:
        config = self.config
        if len(inputs) < 4:
            raise ValueError("retraining needs at least 4 window inputs")
        base_landmarks = list(current.deployed.landmarks)

        with runtime.telemetry.phase("adapt.features"):
            extracted = extract_features(self.program, inputs)
        n_clusters = min(config.n_clusters, len(inputs))
        with runtime.telemetry.phase("adapt.cluster"):
            clustering = cluster_inputs(
                extracted["features"], n_clusters, seed=config.seed
            )
        representatives = representative_input_indices(
            clustering["normalized"],
            clustering["labels"],
            clustering["centroids"],
            n_neighbors=config.tuning_neighbors,
        )
        with runtime.telemetry.phase("adapt.tune"):
            tuned = create_landmarks(
                self.program,
                inputs,
                representatives,
                config.level1_config(),
                runtime=runtime,
            )

        # Union, serving landmarks first: the old classifier's labels stay
        # valid column indices, so it can be scored on the window dataset.
        landmarks = list(base_landmarks)
        for landmark in tuned["landmarks"]:
            if landmark not in landmarks:
                landmarks.append(landmark)

        with runtime.telemetry.phase("adapt.measure"):
            measured = measure_performance(
                self.program, inputs, landmarks, runtime=runtime
            )
        dataset = PerformanceDataset(
            feature_names=self.program.features.feature_names(),
            features=extracted["features"],
            extraction_costs=extracted["costs"],
            times=measured["times"],
            accuracies=measured["accuracies"],
            landmarks=landmarks,
            requirement=self.program.accuracy_requirement,
            inputs=inputs,
        )

        train_rows, test_rows = train_test_split(
            len(inputs), test_fraction=config.test_fraction, random_state=config.seed
        )
        with runtime.telemetry.phase("adapt.level2"):
            level2 = run_level2(
                dataset,
                train_rows,
                test_rows,
                config=config.level2_config(),
                runtime=runtime,
            )

        # Validation guard: both classifiers scored on the same held-out
        # window rows of the same dataset.  Not strictly cheaper -> reject.
        old_eval = evaluate_classifier(current.deployed.classifier, dataset, test_rows)
        new_eval = evaluate_classifier(level2.production.classifier, dataset, test_rows)
        common = dict(
            old_cost=old_eval.effective_cost,
            new_cost=new_eval.effective_cost,
            landmarks_before=len(base_landmarks),
            landmarks_after=len(landmarks),
            window_size=len(inputs),
            window_features=extracted["features"],
            dataset=dataset,
        )
        if not new_eval.effective_cost < old_eval.effective_cost:
            return RetrainOutcome(
                swapped=False, reason="rejected", entry=current, **common
            )

        deployed = DeployedProgram(
            program=self.program,
            landmarks=landmarks,
            classifier=level2.production.classifier,
            runtime=runtime,
        )
        entry = self.registry.publish(self.test, deployed)
        return RetrainOutcome(swapped=True, reason="swapped", entry=entry, **common)

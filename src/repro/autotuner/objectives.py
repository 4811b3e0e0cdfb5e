"""The autotuner's dual objective: meet accuracy, then minimize time.

PetaBricks variable-accuracy autotuning considers "a two dimensional
objective space, where its first objective is to meet the accuracy target
(with a given level of confidence) and the second objective is to maximize
performance".  This module encodes that ordering as a total order over
candidate evaluations so the evolutionary search can compare individuals
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.lang.accuracy import AccuracyRequirement
from repro.lang.config import Configuration
from repro.lang.program import PetaBricksProgram
from repro.runtime import Runtime, default_runtime


@dataclass(frozen=True)
class CandidateEvaluation:
    """Measured behaviour of one configuration on the tuning input(s).

    Attributes:
        config: the evaluated configuration.
        mean_time: mean work-unit cost across the tuning inputs.
        accuracies: per-input accuracy scores.
        satisfaction_rate: fraction of tuning inputs meeting the accuracy
            threshold.
        meets_accuracy: whether the satisfaction rate reaches the
            requirement's satisfaction threshold.
    """

    config: Configuration
    mean_time: float
    accuracies: Tuple[float, ...]
    satisfaction_rate: float
    meets_accuracy: bool

    def sort_key(self) -> Tuple[int, float, float]:
        """Total-order key: accuracy feasibility first, then time.

        Infeasible candidates are ordered among themselves by how badly they
        miss the target (higher satisfaction first) and then by time, which
        gives the evolutionary search a gradient toward feasibility.
        """
        if self.meets_accuracy:
            return (0, self.mean_time, 0.0)
        return (1, -self.satisfaction_rate, self.mean_time)


class TuningObjective:
    """Evaluates configurations for the autotuner.

    Args:
        program: the program under tuning.
        tuning_inputs: the inputs used to evaluate candidates.  Level 1 uses
            the cluster centroid (a single synthetic input); passing several
            inputs gives a more robust but slower evaluation.
        requirement: accuracy requirement; defaults to the program's own.
        runtime: measurement runtime the candidate runs go through; defaults
            to the shared serial, cache-less runtime.  ``evaluations_performed``
            counts *requested* runs, so a caching runtime leaves the reported
            tuning budget unchanged while skipping re-execution.
    """

    def __init__(
        self,
        program: PetaBricksProgram,
        tuning_inputs: Sequence[Any],
        requirement: Optional[AccuracyRequirement] = None,
        runtime: Optional[Runtime] = None,
    ) -> None:
        if not tuning_inputs:
            raise ValueError("need at least one tuning input")
        self.program = program
        self.tuning_inputs = list(tuning_inputs)
        self.requirement = requirement or program.accuracy_requirement
        self.runtime = runtime if runtime is not None else default_runtime()
        self.evaluations_performed = 0

    def evaluate_many(self, configs: Sequence[Configuration]) -> List[CandidateEvaluation]:
        """Evaluate a whole generation of configurations at once.

        All (configuration, input) runs go through the runtime as one batch
        (``phase tuner.objective``), so candidate evaluations -- the
        autotuner's hot loop -- fan out over the configured executor while
        keeping every run in the content-keyed run cache (deduplicated
        within the batch, shared with other pipeline stages, and persisted
        via ``cache_path`` like any other measurement).  Results come back
        in ``configs`` order.
        """
        pairs = [
            (config, tuning_input)
            for config in configs
            for tuning_input in self.tuning_inputs
        ]
        with self.runtime.telemetry.phase("tuner.objective"):
            results = self.runtime.run_pairs(self.program, pairs)
        self.evaluations_performed += len(pairs)
        n = len(self.tuning_inputs)
        return [
            self._assemble(
                config,
                [result.time for result in chunk],
                [result.accuracy for result in chunk],
            )
            for config, chunk in zip(
                configs, (results[i : i + n] for i in range(0, len(results), n))
            )
        ]

    def _assemble(
        self, config: Configuration, times: List[float], accuracies: List[float]
    ) -> CandidateEvaluation:
        mean_time = sum(times) / len(times)
        satisfaction = self.requirement.satisfaction_rate(accuracies)
        return CandidateEvaluation(
            config=config,
            mean_time=mean_time,
            accuracies=tuple(accuracies),
            satisfaction_rate=satisfaction,
            meets_accuracy=satisfaction >= self.requirement.satisfaction_threshold
            if self.requirement.enabled
            else True,
        )

"""Evolutionary autotuner substrate.

PetaBricks ships an evolutionary autotuner that searches the program's
configuration space (selector structures, cutoffs, tunables) for the
configuration that best satisfies a dual objective: meet the accuracy target,
then minimize execution time.  Level 1 of the paper's framework invokes this
autotuner once per input cluster, with the cluster's centroid as the presumed
input, to produce the "landmark" configurations.

This subpackage provides:

* :class:`~repro.autotuner.objectives.TuningObjective` -- the dual
  accuracy-then-time objective used to compare candidate configurations;
* :class:`~repro.autotuner.evolution.EvolutionaryAutotuner` -- a (mu + lambda)
  evolutionary search with tournament selection and per-parameter mutation.
"""

from repro.autotuner.evolution import EvolutionaryAutotuner, TuningResult
from repro.autotuner.objectives import CandidateEvaluation, TuningObjective

__all__ = [
    "CandidateEvaluation",
    "EvolutionaryAutotuner",
    "TuningObjective",
    "TuningResult",
]

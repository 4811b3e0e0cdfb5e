"""The SVD benchmark: input type, configuration space, program.

The configuration chooses the number of singular values kept (as a fraction
of the smaller matrix dimension), the technique used to compute them, and the
iteration budget of the iterative techniques.  Accuracy is
``log10(RMS(A) / RMS(A - A_k))`` with the paper's threshold of 0.7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.benchmarks_suite.base import Benchmark, InputGenerator
from repro.lang.accuracy import AccuracyMetric, AccuracyRequirement
from repro.lang.config import (
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    FloatParameter,
    IntegerParameter,
)
from repro.lang.program import PetaBricksProgram

#: Accuracy threshold from the paper.
ACCURACY_THRESHOLD = 0.7


@dataclass
class SVDInput:
    """An SVD problem instance (the matrix to approximate)."""

    matrix: np.ndarray

    def __len__(self) -> int:
        return int(self.matrix.size)


def build_config_space() -> ConfigurationSpace:
    """Configuration space: rank fraction, technique, iteration budget."""
    space = ConfigurationSpace()
    space.add(FloatParameter("rank_fraction", 0.05, 1.0))
    space.add(CategoricalParameter("technique", ["exact", "subspace", "power"]))
    space.add(IntegerParameter("iterations", 2, 20))
    return space


def kept_rank(config: Configuration, shape: Tuple[int, ...]) -> int:
    """The number of singular values a run keeps for a matrix of ``shape``."""
    return max(1, int(round(float(config["rank_fraction"]) * min(shape))))


def run_svd(config: Configuration, problem: SVDInput) -> np.ndarray:
    """Compute the configured rank-k approximation of the input matrix."""
    from repro.benchmarks_suite.svd import algorithms

    matrix = np.asarray(problem.matrix, dtype=float)
    return algorithms.rank_k_approximation(
        matrix,
        k=kept_rank(config, matrix.shape),
        technique=config["technique"],
        iterations=int(config["iterations"]),
    )


def svd_read_view(config: Configuration, problem: SVDInput) -> tuple:
    """What a run of :func:`run_svd` on ``problem`` reads of ``config``:
    ``(k, technique, iterations)``, where ``exact`` reads no iterations."""
    technique = config["technique"]
    iterations = None if technique == "exact" else config["iterations"]
    return (kept_rank(config, np.shape(problem.matrix)), technique, iterations)


def svd_accuracy(problem: SVDInput, approximation: np.ndarray) -> float:
    """Log ratio of initial-guess RMS error to output RMS error."""
    from repro.benchmarks_suite.svd import algorithms

    return algorithms.reconstruction_accuracy(
        np.asarray(problem.matrix, dtype=float), approximation
    )


class SVDBenchmark(Benchmark):
    """The paper's SVD benchmark (variable accuracy)."""

    name = "svd"

    def build_program(self) -> PetaBricksProgram:
        from repro.benchmarks_suite.svd import features

        return PetaBricksProgram(
            name=self.name,
            config_space=build_config_space(),
            run_func=run_svd,
            features=features.build_feature_set(),
            accuracy_metric=AccuracyMetric("log_rms_ratio", svd_accuracy),
            accuracy_requirement=AccuracyRequirement(
                accuracy_threshold=ACCURACY_THRESHOLD, satisfaction_threshold=0.95
            ),
            read_view=svd_read_view,
        )

    def input_generators(self) -> Dict[str, InputGenerator]:
        from repro.benchmarks_suite.svd import generators

        return {
            "synthetic": InputGenerator(
                name="synthetic",
                description="matrices with low-rank, decaying, flat, and sparse spectra",
                item=generators.synthetic_item,
            ),
        }

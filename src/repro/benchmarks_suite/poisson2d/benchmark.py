"""The Poisson 2D benchmark: input type, configuration space, program.

The configuration chooses among multigrid (with cycle shape, cycle count and
smoothing counts set by the autotuner), Jacobi, SOR, and the direct fast
Poisson solver, plus an iteration budget for the iterative methods.
Accuracy is ``log10(RMS(u_exact - 0) / RMS(u_exact - u_out))`` with the
paper's threshold of 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.benchmarks_suite.base import Benchmark, InputGenerator
from repro.lang.accuracy import AccuracyMetric, AccuracyRequirement
from repro.lang.config import (
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    IntegerParameter,
)
from repro.lang.program import PetaBricksProgram

#: Accuracy threshold from the paper (10^7 error reduction).
ACCURACY_THRESHOLD = 7.0


@dataclass
class PoissonInput:
    """A Poisson problem instance (the right-hand side on the interior grid)."""

    rhs: np.ndarray
    #: Cached reference solution, computed lazily by the accuracy metric.
    #: A class attribute, not a field: ``input_key`` hashes the fields, and
    #: a run must not change the key of its own input.
    _exact = None

    def __len__(self) -> int:
        return int(self.rhs.size)

    def exact_solution(self) -> np.ndarray:
        """Reference solution (cached; computed outside the cost model)."""
        if self._exact is None:
            from repro.benchmarks_suite.poisson2d import solvers

            self._exact = solvers.exact_solution(np.asarray(self.rhs, dtype=float))
        return self._exact


def build_config_space() -> ConfigurationSpace:
    """Configuration space: solver choice plus its tunables."""
    space = ConfigurationSpace()
    space.add(
        CategoricalParameter("solver", ["multigrid", "jacobi", "sor", "direct"])
    )
    space.add(IntegerParameter("iterations", 5, 400, log_scale=True))
    space.add(CategoricalParameter("cycle_shape", ["V", "W"]))
    space.add(IntegerParameter("cycles", 1, 12))
    space.add(IntegerParameter("pre_smooth", 1, 4))
    space.add(IntegerParameter("post_smooth", 1, 4))
    return space


def run_poisson(config: Configuration, problem: PoissonInput) -> np.ndarray:
    """Solve the Poisson problem with the configured solver."""
    from repro.benchmarks_suite.poisson2d import solvers

    f = np.asarray(problem.rhs, dtype=float)
    solver = config["solver"]
    if solver == "direct":
        return solvers.direct_banded_cholesky(f)
    if solver == "jacobi":
        return solvers.jacobi(f, iterations=int(config["iterations"]))
    if solver == "sor":
        return solvers.sor(f, iterations=int(config["iterations"]))
    if solver == "multigrid":
        return solvers.multigrid(
            f,
            cycles=int(config["cycles"]),
            cycle_shape=config["cycle_shape"],
            pre_smooth=int(config["pre_smooth"]),
            post_smooth=int(config["post_smooth"]),
        )
    raise ValueError(f"unknown solver {solver!r}")


#: The parameters each solver reads besides ``solver`` (the same in
#: Helmholtz 3D, which shares this view).
_SOLVER_READS = {
    "direct": (),
    "jacobi": ("iterations",),
    "sor": ("iterations",),
    "multigrid": ("cycles", "cycle_shape", "pre_smooth", "post_smooth"),
}


def solver_read_view(config: Configuration, _problem: object) -> tuple:
    """What a grid-solver run reads of ``config``: the solver and its own
    parameters, whatever the input."""
    solver = config["solver"]
    return (solver,) + tuple(config[name] for name in _SOLVER_READS.get(solver, ()))


def poisson_accuracy(problem: PoissonInput, solution: np.ndarray) -> float:
    """Log10 ratio of initial-guess error to achieved error."""
    exact = problem.exact_solution()
    initial_error = float(np.sqrt(np.mean(exact ** 2)))
    output_error = float(np.sqrt(np.mean((exact - solution) ** 2)))
    return float(np.log10((initial_error + 1e-300) / (output_error + 1e-300)))


class Poisson2DBenchmark(Benchmark):
    """The paper's Poisson 2D benchmark (variable accuracy)."""

    name = "poisson2d"

    def build_program(self) -> PetaBricksProgram:
        from repro.benchmarks_suite.poisson2d import features

        return PetaBricksProgram(
            name=self.name,
            config_space=build_config_space(),
            run_func=run_poisson,
            features=features.build_feature_set(),
            accuracy_metric=AccuracyMetric("log_error_ratio", poisson_accuracy),
            accuracy_requirement=AccuracyRequirement(
                accuracy_threshold=ACCURACY_THRESHOLD, satisfaction_threshold=0.95
            ),
            read_view=solver_read_view,
        )

    def input_generators(self) -> Dict[str, InputGenerator]:
        from repro.benchmarks_suite.poisson2d import generators

        return {
            "synthetic": InputGenerator(
                name="synthetic",
                description="right-hand sides with smooth, oscillatory, sparse, mixed, and noisy spectra",
                item=generators.synthetic_item,
            ),
        }

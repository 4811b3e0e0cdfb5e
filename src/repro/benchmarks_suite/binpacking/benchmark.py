"""The Bin Packing benchmark: configuration space and program.

The algorithmic choice is which of the 13 approximation heuristics to run
(a flat ``either...or`` with no recursion, so the configuration space is a
single categorical parameter).  Accuracy is the average occupied fraction of
the bins used; the paper's accuracy threshold is 0.95.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.benchmarks_suite.base import Benchmark, InputGenerator
from repro.benchmarks_suite.binpacking import algorithms, features, generators
from repro.lang.accuracy import AccuracyMetric, AccuracyRequirement
from repro.lang.config import CategoricalParameter, Configuration, ConfigurationSpace
from repro.lang.program import PetaBricksProgram

#: Accuracy threshold from the paper.
ACCURACY_THRESHOLD = 0.95


def build_config_space() -> ConfigurationSpace:
    """A single categorical choice among the 13 heuristics."""
    space = ConfigurationSpace()
    space.add(CategoricalParameter("heuristic", sorted(algorithms.HEURISTICS)))
    return space


def run_binpacking(config: Configuration, items: np.ndarray):
    """Pack ``items`` with the configured heuristic."""
    heuristic = algorithms.HEURISTICS[config["heuristic"]]
    return heuristic(np.asarray(items, dtype=float).tolist())


def binpacking_accuracy(_items: np.ndarray, bins) -> float:
    """Average occupied fraction of the bins used."""
    return algorithms.occupancy(bins)


class BinPackingBenchmark(Benchmark):
    """The paper's Bin Packing benchmark (variable accuracy)."""

    name = "binpacking"

    def build_program(self) -> PetaBricksProgram:
        return PetaBricksProgram(
            name=self.name,
            config_space=build_config_space(),
            run_func=run_binpacking,
            features=features.build_feature_set(),
            accuracy_metric=AccuracyMetric("occupancy", binpacking_accuracy),
            accuracy_requirement=AccuracyRequirement(
                accuracy_threshold=ACCURACY_THRESHOLD, satisfaction_threshold=0.95
            ),
        )

    def input_generators(self) -> Dict[str, InputGenerator]:
        return {
            "synthetic": InputGenerator(
                name="synthetic",
                description="mixture of packable, small-item, pre-sorted, bimodal and uniform item lists",
                item=generators.synthetic_item,
            ),
        }

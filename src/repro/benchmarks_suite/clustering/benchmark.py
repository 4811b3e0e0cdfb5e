"""The Clustering benchmark: input type, configuration space, program.

Accuracy (paper Section 4.1): ``sum(d_hat_i) / sum(d_i)`` where ``d_hat`` are
point-to-centre distances under a canonical clustering and ``d`` under the
tuned configuration; the accuracy threshold is 0.8.  A configuration that
uses too few clusters or too few iterations produces large distances and
fails the threshold; over-provisioned configurations pass but waste time --
exactly the accuracy/performance tension the two-level method manages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

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

#: Accuracy threshold from the paper.
ACCURACY_THRESHOLD = 0.8


@dataclass
class ClusteringInput:
    """A clustering problem instance.

    Attributes:
        points: (n, 2) array of coordinates.
        true_k: the generating process's cluster count, when known (used only
            by the canonical reference clustering, never by the tuned code).
    """

    points: np.ndarray
    true_k: Optional[int] = None
    #: Cached mean point-to-centre distance of the canonical clustering,
    #: computed lazily by the accuracy metric.  A class attribute, not a
    #: field: ``input_key`` hashes the fields, and a run must not change
    #: the key of its own input.
    _canonical_distance = None

    def __len__(self) -> int:
        return len(self.points)

    def canonical_distance(self) -> float:
        """Mean point-to-centre distance of the canonical clustering (cached)."""
        if self._canonical_distance is None:
            from repro.benchmarks_suite.clustering.algorithms import canonical_clustering

            reference = canonical_clustering(self.points, true_k=self.true_k)
            # Guard against a degenerate zero (all points identical).
            self._canonical_distance = max(reference.mean_distance, 1e-9)
        return self._canonical_distance


def build_config_space() -> ConfigurationSpace:
    """Configuration space: init strategy, cluster count, iteration budget."""
    space = ConfigurationSpace()
    space.add(CategoricalParameter("init", ["random", "prefix", "centerplus"]))
    space.add(IntegerParameter("k", 2, 16))
    space.add(IntegerParameter("iterations", 1, 20))
    return space


def run_clustering(config: Configuration, problem: ClusteringInput):
    """Cluster the input with the configured k-means variant."""
    from repro.benchmarks_suite.clustering.algorithms import kmeans_cluster

    return kmeans_cluster(
        problem.points,
        k=int(config["k"]),
        iterations=int(config["iterations"]),
        init=config["init"],
        seed=7,
    )


def clustering_accuracy(problem: ClusteringInput, output) -> float:
    """Accuracy = canonical mean distance / achieved mean distance.

    Values above 1.0 mean the tuned clustering is tighter than the canonical
    reference (possible when it uses more clusters); the paper's threshold of
    0.8 tolerates a 25% degradation.
    """
    achieved = max(output.mean_distance, 1e-9)
    return problem.canonical_distance() / achieved


class ClusteringBenchmark(Benchmark):
    """The paper's Clustering benchmark (variable accuracy)."""

    name = "clustering"

    def build_program(self) -> PetaBricksProgram:
        from repro.benchmarks_suite.clustering import features

        return PetaBricksProgram(
            name=self.name,
            config_space=build_config_space(),
            run_func=run_clustering,
            features=features.build_feature_set(),
            accuracy_metric=AccuracyMetric("distance_ratio", clustering_accuracy),
            accuracy_requirement=AccuracyRequirement(
                accuracy_threshold=ACCURACY_THRESHOLD, satisfaction_threshold=0.95
            ),
        )

    def input_generators(self) -> Dict[str, InputGenerator]:
        from repro.benchmarks_suite.clustering import generators

        return {
            "synthetic": InputGenerator(
                name="synthetic",
                description="Gaussian blob mixtures and noise populations (clustering2)",
                item=generators.synthetic_item,
            ),
            "real_world": InputGenerator(
                name="real_world",
                description="poker-hand-like lattice data standing in for the UCI dataset (clustering1)",
                item=generators.real_world_item,
            ),
        }

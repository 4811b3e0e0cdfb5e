"""In-text ablations from the paper.

Two claims in the running text are reproduced here in addition to the main
table and figures:

* Section 3.1: with few landmarks, choosing them by clustering the inputs
  (k-means on input features) is substantially better than choosing them by
  uniform random sampling of training inputs ("with 5 configurations,
  uniformly picked landmarks result in 41% degradation of performance than
  selection with kmeans").  :func:`landmark_selection_ablation` measures the
  dynamic-oracle performance obtainable from landmarks tuned on k-means
  representatives vs. on uniformly sampled inputs.
* Section 4.2: "73.4% of the data points changed their clusters when the
  second-level clustering is applied."  The Level-2 result already records
  this as ``relabel_shift``; :func:`relabel_shift` simply surfaces it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.autotuner import EvolutionaryAutotuner
from repro.core.baselines import DynamicOracle, StaticOracle
from repro.core.dataset import PerformanceDataset
from repro.core.level1 import measure_performance
from repro.experiments.runner import ExperimentResult
from repro.runtime import Runtime


@dataclass
class LandmarkSelectionAblation:
    """Outcome of the k-means-vs-random landmark selection ablation.

    Attributes:
        kmeans_speedup: mean dynamic-oracle speedup over the static oracle
            when landmarks come from k-means cluster representatives.
        random_speedup: same, when landmarks come from uniformly sampled
            training inputs.
        degradation: relative degradation of random vs. k-means
            (positive means random is worse, as the paper reports).
    """

    kmeans_speedup: float
    random_speedup: float

    @property
    def degradation(self) -> float:
        if self.kmeans_speedup <= 0:
            return 0.0
        return (self.kmeans_speedup - self.random_speedup) / self.kmeans_speedup


def _oracle_speedup(dataset: PerformanceDataset, train_rows, test_rows) -> float:
    static = StaticOracle().fit(dataset, train_rows).evaluate(dataset, test_rows)
    dynamic = DynamicOracle().evaluate(dataset, test_rows)
    return float(np.mean(static.times / np.maximum(dynamic.times, 1e-12)))


def landmark_selection_ablation(
    result: ExperimentResult,
    n_landmarks: int = 5,
    seed: int = 0,
    tuner_generations: int = 6,
    tuner_population: int = 8,
    runtime: Optional[Runtime] = None,
) -> LandmarkSelectionAblation:
    """Compare k-means-representative landmarks against random-input landmarks.

    Both alternatives get the same landmark budget; the k-means side reuses
    the already-trained experiment's landmarks (restricted to the budget by
    taking the first ``n_landmarks``), while the random side autotunes fresh
    landmarks on uniformly chosen training inputs and measures them on the
    same inputs.
    """
    training = result.training
    dataset = training.dataset
    program = training.deployed.program
    train_rows = training.level2.train_rows
    test_rows = training.level2.test_rows

    budget = min(n_landmarks, dataset.n_landmarks)
    kmeans_dataset = dataset.restrict_landmarks(list(range(budget)))
    kmeans_speedup = _oracle_speedup(kmeans_dataset, train_rows, test_rows)

    rng = random.Random(seed)
    assert dataset.inputs is not None, "ablation needs the raw inputs"
    candidate_rows = [int(i) for i in train_rows]
    chosen = rng.sample(candidate_rows, min(budget, len(candidate_rows)))
    landmarks = []
    for rank, row in enumerate(chosen):
        tuner = EvolutionaryAutotuner(
            population_size=tuner_population,
            offspring_per_generation=tuner_population,
            max_generations=tuner_generations,
            seed=seed + rank,
            runtime=runtime,
        )
        landmarks.append(tuner.tune(program, [dataset.inputs[row]]).best_config)

    measured = measure_performance(program, dataset.inputs, landmarks, runtime=runtime)
    random_dataset = PerformanceDataset(
        feature_names=dataset.feature_names,
        features=dataset.features,
        extraction_costs=dataset.extraction_costs,
        times=measured["times"],
        accuracies=measured["accuracies"],
        landmarks=landmarks,
        requirement=dataset.requirement,
        inputs=dataset.inputs,
    )
    random_speedup = _oracle_speedup(random_dataset, train_rows, test_rows)
    return LandmarkSelectionAblation(
        kmeans_speedup=kmeans_speedup, random_speedup=random_speedup
    )


def relabel_shift(result: ExperimentResult) -> Optional[float]:
    """Fraction of inputs whose Level-2 label differs from their Level-1 cluster's landmark."""
    return result.training.level2.relabel_shift


@dataclass
class PcaClusteringAblation:
    """Outcome of the PCA-based one-level clustering ablation.

    The paper argues that unsupervised feature selection such as PCA cannot
    close the mapping-disparity gap.  This ablation re-clusters the training
    inputs on their leading principal components (instead of the raw
    normalized features), assigns each cluster the landmark of its nearest
    original Level-1 cluster, and measures the resulting one-level-style
    performance on the test inputs.

    Attributes:
        pca_speedup: mean speedup over the static oracle of the PCA-clustered
            one-level assignment (execution time only, no extraction cost).
        two_level_speedup: the trained two-level method's speedup on the same
            rows (without extraction cost, for a like-for-like comparison).
    """

    pca_speedup: float
    two_level_speedup: float


def pca_clustering_ablation(
    result: ExperimentResult, n_components: int = 2, seed: int = 0
) -> PcaClusteringAblation:
    """Compare PCA-space one-level clustering against the two-level method."""
    from repro.ml.kmeans import KMeans
    from repro.ml.normalize import ZScoreNormalizer
    from repro.ml.pca import PCA

    training = result.training
    dataset = training.dataset
    train_rows = training.level2.train_rows
    test_rows = training.level2.test_rows

    normalizer = ZScoreNormalizer()
    normalized = normalizer.fit_transform(dataset.features[train_rows])
    pca = PCA(n_components=min(n_components, normalized.shape[1]))
    projected_train = pca.fit_transform(normalized)
    n_clusters = len(training.level1.cluster_to_landmark)
    clusters = KMeans(n_clusters=n_clusters, random_state=seed).fit(projected_train)

    # Each PCA cluster adopts the landmark that is best on average for its
    # training members (a one-level-style assignment with no accuracy logic).
    labels = np.asarray(clusters.labels)
    cluster_landmark = np.zeros(clusters.centroids.shape[0], dtype=int)
    for cluster in range(clusters.centroids.shape[0]):
        members = train_rows[np.flatnonzero(labels == cluster)]
        if members.size == 0:
            continue
        cluster_landmark[cluster] = int(np.argmin(dataset.times[members].mean(axis=0)))

    projected_test = pca.transform(normalizer.transform(dataset.features[test_rows]))
    distances = (
        np.sum(projected_test ** 2, axis=1)[:, None]
        + np.sum(clusters.centroids ** 2, axis=1)[None, :]
        - 2.0 * projected_test @ clusters.centroids.T
    )
    assigned = cluster_landmark[np.argmin(distances, axis=1)]

    static = StaticOracle().fit(dataset, train_rows).evaluate(dataset, test_rows)
    pca_times = dataset.times[test_rows, assigned]
    pca_speedup = float(np.mean(static.times / np.maximum(pca_times, 1e-12)))
    two_level_speedup = result.mean_speedup("two_level", with_extraction=False)
    return PcaClusteringAblation(
        pca_speedup=pca_speedup, two_level_speedup=two_level_speedup
    )

"""Level 1: feature extraction, input clustering, landmark creation,
performance measurement (the paper's Figure 4 pipeline).

Steps (Section 3.1):

1. **Feature Extraction** -- assemble the M-dimensional feature vector (every
   property at every sampling level) for every training input, recording the
   per-feature extraction cost.
2. **Input Clustering** -- normalize the vectors and run K-means with K1
   clusters.
3. **Landmark Creation** -- autotune the program once per cluster, using the
   cluster's representative input (the training input closest to the
   centroid) as the presumed input; the winning configuration is that
   cluster's *landmark*.  The paper feeds the centroid itself to the
   autotuner; using the nearest real input is equivalent for our purposes
   and avoids having to invert feature extraction.
4. **Performance Measurement** -- run every landmark on every training input,
   recording execution time and accuracy.

The output is a :class:`~repro.core.dataset.PerformanceDataset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.autotuner import EvolutionaryAutotuner
from repro.core.dataset import PerformanceDataset
from repro.core.inputs import InputSource
from repro.lang.config import Configuration
from repro.lang.program import PetaBricksProgram
from repro.ml.kmeans import KMeans
from repro.ml.normalize import ZScoreNormalizer
from repro.runtime import Runtime, default_runtime


@dataclass
class Level1Config:
    """Knobs of the Level-1 pipeline.

    Attributes:
        n_clusters: K1, the number of input clusters / landmarks (the paper
            uses 100; the reproduction defaults to a smaller value because
            Section 4.3 shows 10-30 landmarks already capture most of the
            benefit and the experiment matrix is N x K1 program runs).
        seed: RNG seed for clustering and autotuning.
        tuner_generations: generation budget of the evolutionary autotuner.
        tuner_population: population size of the evolutionary autotuner.
        tuning_neighbors: how many inputs nearest to each centroid the
            autotuner evaluates candidates on.  The paper tunes on the
            centroid itself; evaluating on a few nearby real inputs makes the
            landmark's accuracy guarantee hold with some confidence across
            the cluster, which matters for the variable-accuracy benchmarks.

    Duplicate configurations tuned for different clusters become one
    landmark, which keeps the landmark set tight.
    """

    n_clusters: int = 15
    seed: int = 0
    tuner_generations: int = 10
    tuner_population: int = 10
    tuning_neighbors: int = 3


@dataclass
class Level1Result:
    """Everything Level 1 produces.

    Attributes:
        dataset: the <F, T, A, E> datatable.
        cluster_labels: K-means cluster index per training input.
        centroids: cluster centroids in normalized feature space.
        representative_indices: per cluster, the indices of the training
            inputs used as the presumed inputs during autotuning (the
            ``tuning_neighbors`` members closest to the centroid).
        landmarks: the distinct landmark configurations.
        cluster_to_landmark: for each Level-1 cluster, the index of its
            landmark in ``landmarks`` (several clusters may share a landmark
            after deduplication).
        normalizer: the feature normalizer fitted on the training features
            (needed by the one-level baseline to classify new inputs).
        tuning_evaluations: total number of program runs spent autotuning.
    """

    dataset: PerformanceDataset
    cluster_labels: np.ndarray
    centroids: np.ndarray
    representative_indices: List[List[int]]
    landmarks: List[Configuration]
    cluster_to_landmark: List[int]
    normalizer: ZScoreNormalizer
    tuning_evaluations: int = 0


#: Inputs materialized at once by :func:`extract_features` -- bounds the
#: streaming path's transient memory while amortizing the batch setup.
_EXTRACT_CHUNK = 256


def extract_features(
    program: PetaBricksProgram, inputs: Sequence[Any]
) -> Dict[str, np.ndarray]:
    """Step 1: extract every feature of every input, with costs.

    Returns a dict with ``"features"`` (N, M) and ``"costs"`` (N, M).
    Inputs are consumed in bounded chunks through the vectorized
    :meth:`~repro.lang.features.FeatureSet.extract_batch`, so a lazy
    :class:`~repro.core.inputs.InputSource` streams through in O(chunk)
    transient memory -- only the two (N, M) matrices persist -- while every
    entry stays bit-identical to the one-input-at-a-time path.
    """
    n = len(inputs)
    m = program.features.num_features()
    features = np.zeros((n, m))
    costs = np.zeros((n, m))
    chunk: List[Any] = []
    start = 0
    for program_input in inputs:
        chunk.append(program_input)
        if len(chunk) >= _EXTRACT_CHUNK:
            features[start : start + len(chunk)], costs[start : start + len(chunk)] = (
                program.features.extract_batch(chunk)
            )
            start += len(chunk)
            chunk = []
    if chunk:
        features[start : start + len(chunk)], costs[start : start + len(chunk)] = (
            program.features.extract_batch(chunk)
        )
    return {"features": features, "costs": costs}


def cluster_inputs(
    features: np.ndarray, n_clusters: int, seed: int = 0
) -> Dict[str, Any]:
    """Step 2: normalize the feature vectors and K-means them into K1 groups."""
    normalizer = ZScoreNormalizer()
    normalized = normalizer.fit_transform(features)
    kmeans = KMeans(n_clusters=n_clusters, random_state=seed)
    result = kmeans.fit(normalized)
    return {
        "normalizer": normalizer,
        "normalized": normalized,
        "labels": result.labels,
        "centroids": result.centroids,
    }


def representative_input_indices(
    normalized_features: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    n_neighbors: int = 1,
) -> List[List[int]]:
    """For each cluster, the indices of the inputs closest to its centroid.

    Returns a list of index lists (one per cluster), each containing up to
    ``n_neighbors`` member indices ordered by distance to the centroid.
    Empty clusters (possible after k-means repair) fall back to the globally
    closest inputs.
    """
    n_neighbors = max(1, n_neighbors)
    representatives: List[List[int]] = []
    for cluster in range(centroids.shape[0]):
        members = np.flatnonzero(labels == cluster)
        if members.size == 0:
            distances = np.sum((normalized_features - centroids[cluster]) ** 2, axis=1)
            order = np.argsort(distances)[:n_neighbors]
            representatives.append([int(i) for i in order])
            continue
        distances = np.sum(
            (normalized_features[members] - centroids[cluster]) ** 2, axis=1
        )
        order = members[np.argsort(distances)][:n_neighbors]
        representatives.append([int(i) for i in order])
    return representatives


def create_landmarks(
    program: PetaBricksProgram,
    inputs: Sequence[Any],
    representative_indices: Sequence[Sequence[int]],
    config: Level1Config,
    progress: Optional[Callable[[str], None]] = None,
    runtime: Optional[Runtime] = None,
) -> Dict[str, Any]:
    """Step 3: autotune the program once per cluster.

    Each cluster's autotuning run evaluates candidates on that cluster's
    representative inputs (the ``tuning_neighbors`` inputs closest to the
    centroid), so the landmark's accuracy holds with some confidence across
    the cluster rather than on a single presumed input only.
    """
    landmarks: List[Configuration] = []
    evaluations = 0
    for rank, member_indices in enumerate(representative_indices):
        tuner = EvolutionaryAutotuner(
            population_size=config.tuner_population,
            offspring_per_generation=config.tuner_population,
            max_generations=config.tuner_generations,
            seed=config.seed + rank,
            runtime=runtime,
        )
        tuning_inputs = [inputs[i] for i in member_indices]
        result = tuner.tune(program, tuning_inputs)
        landmarks.append(result.best_config)
        evaluations += result.evaluations
        if progress is not None:
            progress(
                f"landmark {rank + 1}/{len(representative_indices)} tuned "
                f"({result.evaluations} runs)"
            )
    return {"landmarks": landmarks, "evaluations": evaluations}


def measure_performance(
    program: PetaBricksProgram,
    inputs: Sequence[Any],
    landmarks: Sequence[Configuration],
    progress: Optional[Callable[[str], None]] = None,
    runtime: Optional[Runtime] = None,
) -> Dict[str, np.ndarray]:
    """Step 4: run every landmark on every input, recording time and accuracy.

    The N x K matrix is submitted to the measurement runtime as one logical
    batch, so a parallel executor can spread the runs across workers and a
    shared cache can recall measurements already taken (e.g. by the
    autotuner or an earlier experiment).  The batch streams through in
    content-ordered chunks of the runtime's ``batch_chunk`` -- at the
    paper's 50-60k-input scale the task list never has to exist in memory
    at once -- with results independent of the chunk size.
    """
    runtime = runtime if runtime is not None else default_runtime()
    n, k = len(inputs), len(landmarks)
    before = runtime.telemetry.cache_hits
    with runtime.telemetry.phase("level1.measure"):
        measured = runtime.measure(program, landmarks, inputs)
    if progress is not None:
        hits = runtime.telemetry.cache_hits - before
        progress(f"measured {k} landmarks on {n} inputs ({hits} cache hits)")
    return measured


def run_level1(
    program: PetaBricksProgram,
    inputs: Sequence[Any],
    config: Optional[Level1Config] = None,
    progress: Optional[Callable[[str], None]] = None,
    runtime: Optional[Runtime] = None,
) -> Level1Result:
    """Run the full Level-1 pipeline and assemble the performance dataset.

    ``inputs`` may be a plain list or a lazy
    :class:`~repro.core.inputs.InputSource`.  With a source, no stage holds
    the whole population: feature extraction consumes it one input at a
    time, landmark tuning materializes only each cluster's representatives,
    and the measurement matrix streams through :meth:`Runtime.measure`
    (re-materializing inputs per chunk), so peak memory stays O(chunk)
    rather than O(N) while every number stays bit-identical to the
    materialized path (per-index generation is deterministic, so the
    content-keyed run cache sees the same keys either way).
    """
    if config is None:
        config = Level1Config()
    if len(inputs) < 2:
        raise ValueError("Level 1 needs at least two training inputs")
    runtime = runtime if runtime is not None else default_runtime()

    with runtime.telemetry.phase("level1.features"):
        extracted = extract_features(program, inputs)
    n_clusters = min(config.n_clusters, len(inputs))
    with runtime.telemetry.phase("level1.cluster"):
        clustering = cluster_inputs(extracted["features"], n_clusters, seed=config.seed)
    representatives = representative_input_indices(
        clustering["normalized"],
        clustering["labels"],
        clustering["centroids"],
        n_neighbors=config.tuning_neighbors,
    )
    with runtime.telemetry.phase("level1.tune"):
        landmark_info = create_landmarks(
            program, inputs, representatives, config, progress=progress, runtime=runtime
        )

    landmarks: List[Configuration] = []
    cluster_to_landmark = []
    for landmark in landmark_info["landmarks"]:
        if landmark not in landmarks:
            landmarks.append(landmark)
        cluster_to_landmark.append(landmarks.index(landmark))

    measured = measure_performance(
        program, inputs, landmarks, progress=progress, runtime=runtime
    )
    dataset = PerformanceDataset(
        feature_names=program.features.feature_names(),
        features=extracted["features"],
        extraction_costs=extracted["costs"],
        times=measured["times"],
        accuracies=measured["accuracies"],
        landmarks=list(landmarks),
        requirement=program.accuracy_requirement,
        # A lazy source is kept as-is -- materializing it here would
        # reintroduce the O(N) input list the streaming path removes; the
        # dataset's consumers only ever index or re-iterate it.
        inputs=inputs if isinstance(inputs, InputSource) else list(inputs),
    )
    return Level1Result(
        dataset=dataset,
        cluster_labels=clustering["labels"],
        centroids=clustering["centroids"],
        representative_indices=representatives,
        landmarks=list(landmarks),
        cluster_to_landmark=cluster_to_landmark,
        normalizer=clustering["normalizer"],
        tuning_evaluations=landmark_info["evaluations"],
    )

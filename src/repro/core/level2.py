"""Level 2: cluster refinement, cost matrix, classifier zoo, selection
(the paper's Figure 5 pipeline).

Steps (Section 3.2):

1. **Cluster refinement / labelling** -- regroup the training inputs by
   their *best landmark configuration* (accuracy-then-time rule), closing
   the mapping-disparity gap between the Level-1 feature-space clusters and
   the performance space.
2. **Cost matrix** -- ``C[i, j] = lambda * Ca[i, j] * max_t(Cp[i, t]) +
   Cp[i, j]`` where ``Cp[i, j]`` is the mean execution-time penalty of
   running landmark ``j`` on inputs labelled ``i`` and ``Ca[i, j]`` the
   fraction of those inputs for which landmark ``j`` misses the accuracy
   threshold.  The paper found ``lambda = 0.5`` best and we default to it.
3. **Classifier learning** -- one Max-apriori classifier, one decision tree
   per enumerated feature subset (at most one level per property), the
   all-features tree, and incremental feature-examination classifiers at a
   few posterior thresholds.
4. **Production-classifier selection** -- every candidate is scored on the
   test rows with the efficacy objective of :mod:`repro.core.selection`.

The candidate search (steps 3-4) is expressed as a batch of content-keyed
tasks over the measurement runtime (:meth:`repro.runtime.Runtime.run_tasks`):
each candidate is described by a picklable :class:`CandidateSpec`, fitted
and scored by a module-level task function, and the batch fans out over
whatever executor the runtime carries.  Determinism is preserved by
construction -- candidates are enumerated, reassembled, and compared in
*enumeration order* (a deterministic key independent of completion order),
so the serial path, the thread pool, and the process pool all select the
identical production classifier with identical scores.  Per-candidate cache
keys (dataset digest + split + spec) let a warm runtime skip retraining
entirely.

Every tree of one search is grown on the same rows, and most of their
per-feature split scans repeat scans another tree already made.  The batch
therefore ships one split memo (:mod:`repro.ml.decision_tree`) beside the
dataset, and each executor shares it among the fits it runs.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classifiers import (
    AllFeaturesClassifier,
    CandidateClassifier,
    IncrementalFeatureExaminationClassifier,
    MaxAprioriClassifier,
    SubsetDecisionTreeClassifier,
    order_features_by_cost,
)
from repro.core.dataset import PerformanceDataset
from repro.core.selection import (
    ClassifierEvaluation,
    cross_validate_classifier,
    evaluate_classifier,
    select_production_classifier,
)
from repro.ml.decision_tree import SplitMemo
from repro.runtime import Runtime, SharedRef, TaskSpec, content_key, default_runtime

#: Registry token under which candidate batches ship the dataset to workers.
#: The dataset is by far the largest task argument (O(N x M) features plus the
#: N x K1 matrices), so it rides the process pool's initializer -- crossing
#: the process boundary once per pool -- while each task only carries this
#: tiny placeholder.  See :class:`repro.runtime.SharedRef`.
_DATASET_TOKEN = "level2.dataset"
_DATASET_REF = SharedRef(_DATASET_TOKEN)

#: Registry token of the batch's split memo.  Shipped the way the dataset
#: is, it reaches each pool worker once per pool (empty), and each worker
#: fills its own copy across all of its leases; serial and thread batches
#: share the one dict.  Task cache keys leave it out: it changes no result.
_SPLIT_MEMO_TOKEN = "level2.split_memo"
_SPLIT_MEMO_REF = SharedRef(_SPLIT_MEMO_TOKEN)


@dataclass
class Level2Config:
    """Knobs of the Level-2 pipeline.

    Attributes:
        accuracy_cost_weight: the paper's lambda in the cost matrix (0.5).
        conservative_cost_weights: additional lambda values at which each
            feature-subset tree is retrained for variable-accuracy programs.
            The paper tuned lambda by trying values between 0.001 and 1 and
            keeping the best; exposing a few heavier weights in the candidate
            zoo lets the selection step pick a more accuracy-conservative
            tree when the default one misses the satisfaction threshold.
        max_subsets: cap on the number of enumerated feature subsets; when
            the full enumeration ``(z + 1)^u - 1`` exceeds this, a
            deterministic random sample of subsets is used instead.
        tree_max_depth: decision-tree depth cap.
        incremental_thresholds: posterior thresholds at which to instantiate
            incremental feature-examination classifiers.
        seed: RNG seed for subset sampling.
        cv_folds: when > 0, the selected production candidate is additionally
            scored with stratified k-fold cross-validation on the training
            rows (fanned out over the runtime's executor); the per-fold costs
            land in :attr:`Level2Result.production_cv_costs`.  0 (the
            default) skips the extra work and keeps legacy behaviour.
    """

    accuracy_cost_weight: float = 0.5
    conservative_cost_weights: Tuple[float, ...] = (4.0,)
    max_subsets: int = 256
    tree_max_depth: int = 8
    incremental_thresholds: Tuple[float, ...] = (0.5, 0.7, 0.9)
    seed: int = 0
    cv_folds: int = 0


@dataclass
class Level2Result:
    """Everything Level 2 produces.

    Attributes:
        labels: the refined (performance-based) label per training input.
        cost_matrix: the K1 x K1 misclassification cost matrix.
        classifiers: every trained candidate classifier.
        evaluations: the test-set evaluation of every candidate.
        production: the selected production classifier's evaluation.
        train_rows / test_rows: the row split used.
        relabel_shift: fraction of training rows whose refined label differs
            from the landmark of their Level-1 cluster (the paper reports
            73.4% for Kmeans); ``None`` when the Level-1 cluster mapping was
            not supplied.
        production_cv_costs: per-fold performance costs of the production
            candidate under cross-validation (only when
            ``Level2Config.cv_folds > 0``).
    """

    labels: np.ndarray
    cost_matrix: np.ndarray
    classifiers: List[CandidateClassifier]
    evaluations: List[ClassifierEvaluation]
    production: ClassifierEvaluation
    train_rows: np.ndarray
    test_rows: np.ndarray
    relabel_shift: Optional[float] = None
    production_cv_costs: Optional[List[float]] = None


def compute_labels(dataset: PerformanceDataset) -> np.ndarray:
    """The refined labels: best landmark per input (accuracy-then-time)."""
    return dataset.labels()


def build_cost_matrix(
    dataset: PerformanceDataset,
    labels: np.ndarray,
    accuracy_cost_weight: float = 0.5,
) -> np.ndarray:
    """The paper's misclassification cost matrix.

    ``Cp[i, j]`` is the mean extra execution time incurred by running
    landmark ``j`` instead of the best landmark on inputs labelled ``i``;
    ``Ca[i, j]`` is the fraction of those inputs for which landmark ``j``
    misses the accuracy threshold.  The combined cost is
    ``lambda * Ca * scale_i + Cp``.

    Two implementation details keep the matrix well behaved for
    variable-accuracy programs:

    * the per-input time difference is clamped at zero before averaging --
      a landmark that is *faster* than the label landmark is necessarily
      inaccurate on that input (otherwise it would have been the label), so
      rewarding the time saving would teach classifiers to violate accuracy;
    * the accuracy-penalty scale for class ``i`` is the larger of the
      paper's ``max_t Cp[i, t]`` and the class's mean label execution time,
      so the penalty does not vanish for classes whose label landmark is the
      most expensive one (where every ``Cp[i, t]`` is zero after clamping).
    """
    k = dataset.n_landmarks
    performance_penalty = np.zeros((k, k))
    accuracy_penalty = np.zeros((k, k))
    scale = np.zeros(k)
    requirement = dataset.requirement

    for i in range(k):
        members = np.flatnonzero(labels == i)
        if members.size == 0:
            continue
        member_times = dataset.times[members]
        best_times = member_times[:, i][:, None]
        performance_penalty[i] = np.mean(
            np.maximum(member_times - best_times, 0.0), axis=0
        )
        scale[i] = float(np.mean(member_times[:, i]))
        if requirement.enabled:
            member_accuracies = dataset.accuracies[members]
            accuracy_penalty[i] = np.mean(
                member_accuracies < requirement.accuracy_threshold, axis=0
            )

    row_scale = np.maximum(performance_penalty.max(axis=1), scale)[:, None]
    cost = accuracy_cost_weight * accuracy_penalty * row_scale + performance_penalty
    np.fill_diagonal(cost, 0.0)
    return cost


def enumerate_feature_subsets(
    dataset: PerformanceDataset,
    max_subsets: int,
    seed: int = 0,
) -> List[Tuple[str, ...]]:
    """Enumerate candidate feature subsets: at most one level per property.

    Every property independently contributes either nothing or exactly one of
    its sampling levels, mirroring the paper's ``(z + 1)^u`` enumeration
    (minus the empty subset).  When the enumeration is larger than
    ``max_subsets`` a deterministic random sample is drawn, always keeping
    the all-cheapest-level and all-top-level subsets.
    """
    if max_subsets < 1:
        raise ValueError("max_subsets must be >= 1")
    properties: Dict[str, List[str]] = {}
    for name in dataset.feature_names:
        prop, _, _ = name.rpartition("@")
        properties.setdefault(prop, []).append(name)

    options = [[None] + levels for levels in properties.values()]
    subsets: List[Tuple[str, ...]] = []
    for combination in itertools.product(*options):
        chosen = tuple(name for name in combination if name is not None)
        if chosen:
            subsets.append(chosen)

    if len(subsets) <= max_subsets:
        return subsets

    cheapest = tuple(levels[0] for levels in properties.values())
    richest = tuple(levels[-1] for levels in properties.values())
    # The sentinels coincide when every property has a single level; keeping
    # both would emit a duplicate (and undercut the cap).
    sentinels = [cheapest] if richest == cheapest else [cheapest, richest]
    rng = random.Random(seed)
    sampled = rng.sample(subsets, max(0, max_subsets - len(sentinels)))
    result = sentinels + [s for s in sampled if s not in sentinels]
    if len(result) < max_subsets:
        # The sample overlapped the sentinels; top up deterministically so
        # the cap is always used in full.
        used = set(result)
        for subset in subsets:
            if len(result) >= max_subsets:
                break
            if subset not in used:
                result.append(subset)
                used.add(subset)
    return result[:max_subsets]


@dataclass(frozen=True)
class CandidateSpec:
    """Picklable description of one candidate classifier.

    The unit of work of the Level-2 search: a spec plus its cost matrix is
    everything a worker needs to instantiate, fit, and score a candidate,
    and everything the task cache needs to key the result.

    Attributes:
        family: ``"max_apriori"``, ``"subset_tree"``, ``"all_features"``,
            or ``"incremental"``.
        name: the candidate's unique name within the run.
        feature_names: the feature subset (``subset_tree``) or the ordered
            acquisition pool (``incremental``); empty otherwise.
        max_depth: decision-tree depth cap (tree families).
        posterior_threshold: early-stopping threshold (``incremental``).
    """

    family: str
    name: str
    feature_names: Tuple[str, ...] = ()
    max_depth: int = 8
    posterior_threshold: float = 0.5


def instantiate_candidate(
    spec: CandidateSpec,
    dataset: PerformanceDataset,
    cost_matrix: Optional[np.ndarray],
) -> CandidateClassifier:
    """Build the (unfitted) classifier a spec describes."""
    if spec.family == "max_apriori":
        return MaxAprioriClassifier()
    if spec.family == "subset_tree":
        return SubsetDecisionTreeClassifier(
            feature_names=spec.feature_names,
            cost_matrix=cost_matrix,
            max_depth=spec.max_depth,
            name=spec.name,
        )
    if spec.family == "all_features":
        return AllFeaturesClassifier(
            dataset.feature_names, cost_matrix=cost_matrix, max_depth=spec.max_depth
        )
    if spec.family == "incremental":
        return IncrementalFeatureExaminationClassifier(
            feature_names=spec.feature_names,
            posterior_threshold=spec.posterior_threshold,
            name=spec.name,
        )
    raise ValueError(f"unknown candidate family {spec.family!r}")


def enumerate_candidates(
    dataset: PerformanceDataset,
    labels: np.ndarray,
    cost_matrix: np.ndarray,
    config: Level2Config,
) -> List[Tuple[CandidateSpec, Optional[np.ndarray]]]:
    """Enumerate every candidate of the zoo, in the canonical order.

    Returns ``(spec, cost_matrix)`` pairs.  The order -- max-apriori, then
    subset trees (per subset, per lambda), the all-features tree, and the
    incremental classifiers -- is the deterministic key the whole search
    sorts by: selection tie-breaks resolve by position in this list, so it
    must not depend on executor scheduling.
    """
    candidates: List[Tuple[CandidateSpec, Optional[np.ndarray]]] = []
    candidates.append((CandidateSpec(family="max_apriori", name="max_apriori"), None))

    # For variable-accuracy programs also train accuracy-conservative trees
    # (heavier lambda), giving the selection step valid candidates even when
    # the default-lambda trees miss the satisfaction threshold.
    cost_matrices: List[Tuple[str, np.ndarray]] = [("", cost_matrix)]
    if dataset.requirement.enabled:
        for weight in config.conservative_cost_weights:
            cost_matrices.append(
                (
                    f"|lam={weight:g}",
                    build_cost_matrix(dataset, labels, accuracy_cost_weight=weight),
                )
            )

    subsets = enumerate_feature_subsets(dataset, config.max_subsets, seed=config.seed)
    for subset in subsets:
        for suffix, matrix in cost_matrices:
            spec = CandidateSpec(
                family="subset_tree",
                name="dtree[" + ",".join(subset) + "]" + suffix,
                feature_names=tuple(subset),
                max_depth=config.tree_max_depth,
            )
            candidates.append((spec, matrix))

    candidates.append(
        (
            CandidateSpec(
                family="all_features",
                name="all_features",
                max_depth=config.tree_max_depth,
            ),
            cost_matrix,
        )
    )

    ordered = tuple(order_features_by_cost(dataset, dataset.feature_names))
    for threshold in config.incremental_thresholds:
        spec = CandidateSpec(
            family="incremental",
            name=f"incremental[t={threshold}]",
            feature_names=ordered,
            posterior_threshold=threshold,
        )
        candidates.append((spec, None))

    return candidates


def fit_candidate(
    spec: CandidateSpec,
    cost_matrix: Optional[np.ndarray],
    dataset: PerformanceDataset,
    labels: np.ndarray,
    train_rows: np.ndarray,
    split_memo: Optional[SplitMemo] = None,
) -> CandidateClassifier:
    """Task function: instantiate and fit one candidate."""
    return instantiate_candidate(spec, dataset, cost_matrix).fit(
        dataset, train_rows, labels, split_memo=split_memo
    )


def fit_and_evaluate_candidate(
    spec: CandidateSpec,
    cost_matrix: Optional[np.ndarray],
    dataset: PerformanceDataset,
    labels: np.ndarray,
    train_rows: np.ndarray,
    test_rows: np.ndarray,
    split_memo: Optional[SplitMemo] = None,
) -> Tuple[CandidateClassifier, ClassifierEvaluation]:
    """Task function: fit one candidate and score it on the test rows.

    Fitting and scoring live in one task so a candidate round-trips to a
    worker once and one cache entry covers both.
    """
    classifier = fit_candidate(spec, cost_matrix, dataset, labels, train_rows, split_memo)
    return classifier, evaluate_classifier(classifier, dataset, test_rows)


def _search_fingerprint(
    dataset: PerformanceDataset, labels: np.ndarray, config: Level2Config
) -> str:
    """Digest of everything all candidates share (dataset content + knobs)."""
    return content_key(
        "level2",
        dataset.feature_names,
        dataset.features,
        dataset.extraction_costs,
        dataset.times,
        dataset.accuracies,
        dataset.requirement,
        labels,
        config,
    )


def _run_candidates(
    active: Runtime,
    dataset: PerformanceDataset,
    labels: np.ndarray,
    cost_matrix: np.ndarray,
    config: Level2Config,
    fn,
    rows: Tuple[np.ndarray, ...],
    phase: str,
) -> Tuple[List[Tuple[CandidateSpec, Optional[np.ndarray]]], List]:
    """Run ``fn(spec, matrix, dataset, labels, *rows, split_memo)`` per candidate.

    One task per candidate of :func:`enumerate_candidates`, keyed by (search
    fingerprint, ``rows``, ``fn``, spec, matrix).  The dataset and a fresh
    split memo ride the batch's shared registry.  Returns the candidates
    and the task results, both in enumeration order.
    """
    candidates = enumerate_candidates(dataset, labels, cost_matrix, config)
    fingerprint = content_key(_search_fingerprint(dataset, labels, config), *rows)
    args = (_DATASET_REF, labels) + rows + (_SPLIT_MEMO_REF,)
    tasks = [
        TaskSpec(
            fn=fn,
            args=(spec, matrix) + args,
            key=content_key(fn.__name__, fingerprint, spec, matrix),
            label=spec.name,
        )
        for spec, matrix in candidates
    ]
    shared = {_DATASET_TOKEN: dataset.without_inputs(), _SPLIT_MEMO_TOKEN: {}}
    return candidates, active.run_tasks(tasks, phase=phase, shared=shared)


def train_classifier_zoo(
    dataset: PerformanceDataset,
    labels: np.ndarray,
    train_rows: Sequence[int],
    cost_matrix: np.ndarray,
    config: Level2Config,
    runtime: Optional[Runtime] = None,
) -> List[CandidateClassifier]:
    """Instantiate and fit every candidate classifier on the training rows.

    Training fans out over the runtime's executor as one task batch; the
    returned list is in enumeration order regardless of completion order,
    identical to the serial loop it replaces.
    """
    active = runtime if runtime is not None else default_runtime()
    rows = (np.asarray(train_rows, dtype=int),)
    _, classifiers = _run_candidates(
        active, dataset, labels, cost_matrix, config, fit_candidate, rows, "level2.fit"
    )
    return classifiers


def run_level2(
    dataset: PerformanceDataset,
    train_rows: Sequence[int],
    test_rows: Sequence[int],
    config: Optional[Level2Config] = None,
    level1_cluster_labels: Optional[np.ndarray] = None,
    cluster_to_landmark: Optional[Sequence[int]] = None,
    runtime: Optional[Runtime] = None,
) -> Level2Result:
    """Run the full Level-2 pipeline.

    The candidate search -- one fit-and-score task per classifier -- fans
    out over the runtime's executor (``phase level2.candidates`` in the
    telemetry) and is memoized per candidate, so a warm runtime skips
    retraining.  Results are assembled in enumeration order whatever the
    executor, which makes the selected production classifier and all its
    scores identical across serial, thread, and process execution.

    Args:
        dataset: the Level-1 performance dataset.
        train_rows: rows used to fit the classifiers.
        test_rows: rows used to evaluate and select the production classifier.
        config: Level-2 knobs.
        level1_cluster_labels: optional Level-1 K-means cluster per row,
            used only to report the relabel-shift statistic.
        cluster_to_landmark: optional mapping from Level-1 cluster index to
            landmark index (needed together with ``level1_cluster_labels``).
        runtime: measurement runtime the search fans out over; defaults to
            the shared serial, cache-less runtime (bit-identical legacy
            behaviour).
    """
    if config is None:
        config = Level2Config()
    active = runtime if runtime is not None else default_runtime()
    train_rows = np.asarray(train_rows, dtype=int)
    test_rows = np.asarray(test_rows, dtype=int)
    if train_rows.size == 0 or test_rows.size == 0:
        raise ValueError("both train and test rows must be non-empty")
    # Validate the cross-validation knobs up front: failing after the full
    # candidate search would throw away all of its work.
    if config.cv_folds < 0 or config.cv_folds == 1:
        raise ValueError("cv_folds must be 0 (disabled) or >= 2")
    if config.cv_folds > 0 and train_rows.size < 2:
        raise ValueError("cv_folds > 0 needs at least 2 training rows")

    labels = compute_labels(dataset)
    cost_matrix = build_cost_matrix(
        dataset, labels, accuracy_cost_weight=config.accuracy_cost_weight
    )

    candidates, fitted = _run_candidates(
        active,
        dataset,
        labels,
        cost_matrix,
        config,
        fit_and_evaluate_candidate,
        (train_rows, test_rows),
        "level2.candidates",
    )
    classifiers = [classifier for classifier, _ in fitted]
    evaluations = [evaluation for _, evaluation in fitted]
    production = select_production_classifier(evaluations)

    production_cv_costs: Optional[List[float]] = None
    if config.cv_folds > 0:
        index = next(i for i, e in enumerate(evaluations) if e is production)
        spec, matrix = candidates[index]
        # functools.partial of a module-level function stays picklable, so
        # the CV folds parallelize under the process executor too (a lambda
        # here would silently serialize the whole batch).
        factory = functools.partial(instantiate_candidate, spec, dataset, matrix)
        folds = cross_validate_classifier(
            factory,
            dataset,
            labels,
            train_rows,
            n_splits=config.cv_folds,
            seed=config.seed,
            runtime=active,
            key_prefix=content_key(
                "level2.cv", _search_fingerprint(dataset, labels, config), spec, matrix
            ),
        )
        production_cv_costs = [fold.performance_cost for fold in folds]

    relabel_shift: Optional[float] = None
    if level1_cluster_labels is not None and cluster_to_landmark is not None:
        mapping = np.asarray(list(cluster_to_landmark), dtype=int)
        level1_landmarks = mapping[np.asarray(level1_cluster_labels, dtype=int)]
        relabel_shift = float(np.mean(level1_landmarks != labels))

    return Level2Result(
        labels=labels,
        cost_matrix=cost_matrix,
        classifiers=classifiers,
        evaluations=evaluations,
        production=production,
        train_rows=train_rows,
        test_rows=test_rows,
        relabel_shift=relabel_shift,
        production_cv_costs=production_cv_costs,
    )

"""The split memo shared by the trees of one Level-2 search.

A per-feature split scan is keyed by the digest of the column's values, the
digest of the labels, cost matrix and scan knobs, and the node's rows.
Sharing one memo across fits must never change a tree: every test here
compares trees node for node (their ``_flat()`` arrays) against the tree
the same fit grows with a fresh memo.

:func:`test_search_trees_match_lone_fits` runs on the runtime
``ExperimentConfig`` builds, so ``REPRO_EXECUTOR=thread`` (or ``process``)
runs the search on that executor.
"""

import pickle
import sys

import numpy as np
import pytest

from repro.benchmarks_suite import get_benchmark
from repro.core.classifiers import SubsetDecisionTreeClassifier
from repro.core.level1 import Level1Config, run_level1
from repro.core.level2 import (
    Level2Config,
    build_cost_matrix,
    compute_labels,
    enumerate_candidates,
    fit_candidate,
    run_level2,
)
from repro.experiments.runner import ExperimentConfig
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.runtime import Runtime

CONFIG = Level2Config(max_subsets=64)


@pytest.fixture(scope="module")
def search():
    """A clustering1 Level-1 dataset (variable accuracy: two cost matrices)."""
    variant = get_benchmark("clustering1")
    inputs = variant.benchmark.generate_inputs(60, variant.variant, seed=2)
    level1 = run_level1(
        variant.benchmark.program,
        inputs,
        config=Level1Config(
            n_clusters=4, tuner_generations=2, tuner_population=4, tuning_neighbors=2, seed=2
        ),
    )
    return level1.dataset, np.arange(30), np.arange(30, 60)


def _flat_equal(a, b):
    return all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(a._flat(), b._flat())
    )


def _trees(classifiers):
    return [c for c in classifiers if isinstance(c, SubsetDecisionTreeClassifier)]


def _lone_fits(dataset, train_rows):
    """Every candidate fitted on its own, each with a fresh memo."""
    labels = compute_labels(dataset)
    matrix = build_cost_matrix(dataset, labels, CONFIG.accuracy_cost_weight)
    return [
        fit_candidate(spec, cost, dataset, labels, train_rows)
        for spec, cost in enumerate_candidates(dataset, labels, matrix, CONFIG)
    ]


def _assert_same_trees(classifiers, reference):
    trees, expected = _trees(classifiers), _trees(reference)
    assert [t.name for t in trees] == [t.name for t in expected]
    assert len(trees) > 100
    for tree, alone in zip(trees, expected):
        assert _flat_equal(tree._tree, alone._tree), tree.name


def test_search_trees_match_lone_fits(search):
    """Node for node, every tree of a shared-memo search equals its lone fit."""
    dataset, train_rows, test_rows = search
    runtime = ExperimentConfig(use_cache=False).make_runtime()
    try:
        result = run_level2(dataset, train_rows, test_rows, config=CONFIG, runtime=runtime)
        assert "executor_fallback" not in runtime.stats()
    finally:
        runtime.close()
    _assert_same_trees(result.classifiers, _lone_fits(dataset, train_rows))


def test_one_memo_serves_the_whole_search(search):
    """The shared memo holds far fewer scans than the fits make alone."""
    dataset, train_rows, _ = search
    labels = compute_labels(dataset)
    matrix = build_cost_matrix(dataset, labels, CONFIG.accuracy_cost_weight)
    candidates = enumerate_candidates(dataset, labels, matrix, CONFIG)
    shared, alone = {}, 0
    for spec, cost in candidates:
        fit_candidate(spec, cost, dataset, labels, train_rows, split_memo=shared)
        own = {}
        fit_candidate(spec, cost, dataset, labels, train_rows, split_memo=own)
        alone += len(own)
    assert 0 < len(shared) < alone / 2


def _variant_fits(memo):
    """Fits that differ in labels, cost matrix or column values only.

    The arrays are reused in place between fits, so every fit sees the same
    objects, at the same ids, under the same column indices: a memo keyed
    by feature or by ``id()`` would hand one fit another's scans.
    """
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 3))
    noise = rng.integers(0, 3, size=60) * (rng.random(60) < 0.2)
    y = ((X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5) + noise) % 3
    cost = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
    trees = []

    def fit(**knobs):
        tree = DecisionTreeClassifier(max_depth=4, cost_matrix=cost, **knobs)
        trees.append(tree.fit(X, y, split_memo=memo))

    fit()
    y[:] = ((X[:, 2] > 0).astype(int) * 2 + (X[:, 0] > 1) + noise) % 3  # labels
    fit()
    cost[0, 2] = cost[2, 0] = 0.1  # cost matrix
    fit()
    fit(min_samples_leaf=8)  # scan knobs
    fit(max_thresholds=2)
    X[:, 0] = X[::-1, 0]  # column values
    fit()
    return trees


def test_shared_memo_gives_each_fit_its_own_tree():
    shared = _variant_fits({})
    alone = _variant_fits(None)  # each fit with a fresh memo
    for tree, lone in zip(shared, alone):
        assert _flat_equal(tree, lone)
    # The variants really grow different trees, so a memo that mixed them
    # up would be caught.
    distinct = {tuple(a.tobytes() for a in tree._flat()) for tree in alone}
    assert len(distinct) == len(alone)


def test_fitted_classifier_pickles_alike_with_and_without_memo(search):
    dataset, train_rows, _ = search
    labels = compute_labels(dataset)
    matrix = build_cost_matrix(dataset, labels, CONFIG.accuracy_cost_weight)
    memo = {}
    names = dataset.feature_names[:3]
    for subset in (names[:1], names[1:], names):
        SubsetDecisionTreeClassifier(subset, cost_matrix=matrix).fit(
            dataset, train_rows, labels, split_memo=memo
        )
    assert memo
    with_memo = SubsetDecisionTreeClassifier(names, cost_matrix=matrix).fit(
        dataset, train_rows, labels, split_memo=memo
    )
    without = SubsetDecisionTreeClassifier(names, cost_matrix=matrix).fit(
        dataset, train_rows, labels
    )
    assert pickle.dumps(with_memo) == pickle.dumps(without)
    assert not any(value is memo for value in vars(with_memo._tree).values())


def test_thread_search_under_fast_switching_matches_serial(search):
    """Four threads filling one memo, preempted every few bytecodes."""
    dataset, train_rows, test_rows = search
    serial = run_level2(dataset, train_rows, test_rows, config=CONFIG)
    interval = sys.getswitchinterval()
    runtime = Runtime.create(executor="thread", workers=4, use_cache=False)
    try:
        sys.setswitchinterval(1e-5)
        threaded = run_level2(dataset, train_rows, test_rows, config=CONFIG, runtime=runtime)
    finally:
        sys.setswitchinterval(interval)
        runtime.close()
    assert threaded.production.classifier.name == serial.production.classifier.name
    assert [e.performance_cost for e in threaded.evaluations] == [
        e.performance_cost for e in serial.evaluations
    ]
    _assert_same_trees(threaded.classifiers, serial.classifiers)

"""Cost-sensitive CART decision tree.

The paper's Level-2 "Exhaustive Feature Subsets" classifiers are decision
trees trained on candidate feature subsets; because the label space has
``K1`` classes (one per landmark configuration) and misclassification costs
are highly asymmetric (predicting a slightly slower landmark is cheap,
predicting one that misses the accuracy target is catastrophic), the learning
algorithm must honour a full ``K1 x K1`` cost matrix (Section 3.2, "Setting
Up the Cost Matrix").

This implementation is a standard binary CART on numeric features with two
twists:

* the split criterion and leaf predictions can use an explicit cost matrix
  ``C[i, j]`` = cost of predicting ``j`` when the truth is ``i``;
* the number of candidate thresholds per feature is capped, which keeps
  training fast on the datasets used in the reproduction.

A node's best split is the best of its per-feature scans, and a scan's
answer depends only on the column's values, the labels with the cost
matrix, and the node's rows.  Level 2 grows one tree per feature subset on
the same rows, so most of its scans repeat one another; ``fit`` therefore
accepts a split memo that trees may share, keyed by exactly that content.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: One per-feature scan's answer: the feature's best gain and its threshold,
#: or None when the feature offers no admissible threshold.
ScanResult = Optional[Tuple[float, float]]

#: Memo of per-feature scans shared by the fits of one search, keyed by
#: ``(column digest, fit digest, node-row digest)``.  All three are 16-byte
#: digests, so an entry's size does not grow with the number of rows.
SplitMemo = Dict[Tuple[bytes, bytes, bytes], ScanResult]


def _digest(*parts: bytes) -> bytes:
    """16-byte digest of ``parts``, each length-prefixed (unambiguous)."""
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.digest()


def _sorted_quantile(sorted_values: np.ndarray, quantiles: np.ndarray) -> np.ndarray:
    """``np.quantile`` (linear method) on already-sorted data, bit-for-bit.

    Replicates NumPy's virtual-index arithmetic and its two-sided lerp
    (which switches to the ``b - (b-a)*(1-t)`` form at ``t >= 0.5``), so the
    results match ``np.quantile(values, quantiles)`` exactly while skipping
    the internal partition.
    """
    n = sorted_values.shape[0]
    virtual = quantiles * (n - 1)
    previous = np.floor(virtual)
    gamma = virtual - previous
    lower = sorted_values[previous.astype(np.int64)]
    upper = sorted_values[np.ceil(virtual).astype(np.int64)]
    diff = upper - lower
    result = lower + diff * gamma
    high = gamma >= 0.5
    result[high] = upper[high] - diff[high] * (1.0 - gamma[high])
    return result


@dataclass
class _Node:
    """A tree node; leaves carry a prediction, internal nodes a split."""

    prediction: int
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None or self.right is None


class DecisionTreeClassifier:
    """Binary-split decision tree with optional misclassification-cost matrix.

    Args:
        max_depth: maximum tree depth (root is depth 0).
        min_samples_split: do not split nodes smaller than this.
        min_samples_leaf: both children of a split must have at least this
            many samples.
        max_thresholds: cap on candidate thresholds per feature per node
            (quantile-based, at least 1), trading a little split optimality
            for speed.
        cost_matrix: optional (n_classes, n_classes) array; entry (i, j) is
            the cost of predicting class j for a sample of true class i.
            When omitted, 0/1 misclassification cost (i.e. Gini-like
            behaviour) is used.
        random_state: seed used only to break ties deterministically.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_thresholds: int = 24,
        cost_matrix: Optional[np.ndarray] = None,
        random_state: Optional[int] = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_thresholds < 1:
            raise ValueError("max_thresholds must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds = max_thresholds
        self.cost_matrix = None if cost_matrix is None else np.asarray(cost_matrix, dtype=float)
        self.random_state = random_state
        self._root: Optional[_Node] = None
        self._flat_cache: Optional[tuple] = None
        self.n_classes_: int = 0
        self.classes_: Optional[np.ndarray] = None

    # -- public API -----------------------------------------------------

    def fit(
        self, X: np.ndarray, y: np.ndarray, split_memo: Optional[SplitMemo] = None
    ) -> "DecisionTreeClassifier":
        """Grow the tree on features ``X`` (n_samples, n_features) and labels ``y``.

        ``split_memo`` lets fits share their per-feature split scans.  An
        entry is keyed by the digest of the column's values, the digest of
        the labels, cost matrix, ``min_samples_leaf`` and ``max_thresholds``,
        and the digest of the node's row positions -- never by feature index
        or object identity -- so one dict may serve fits that differ in any
        of them, and every fit grows the tree it would grow alone.  Without
        one the fit uses a fresh dict.  The fitted tree keeps no reference
        to it.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be 1-D and aligned with X")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")

        self.classes_ = np.unique(y)
        self.n_classes_ = int(self.classes_.max()) + 1
        if self.cost_matrix is not None:
            if self.cost_matrix.shape[0] < self.n_classes_ or self.cost_matrix.shape[1] < self.n_classes_:
                raise ValueError(
                    "cost_matrix is smaller than the number of classes "
                    f"({self.cost_matrix.shape} vs {self.n_classes_})"
                )
        # A scan's key, minus the node's rows: (column digest, fit digest).
        cost = b"gini" if self.cost_matrix is None else (
            repr(self.cost_matrix.shape).encode() + self.cost_matrix.tobytes()
        )
        fit_key = _digest(
            y.tobytes(), cost, b"%d,%d" % (self.min_samples_leaf, self.max_thresholds)
        )
        scan_keys = [
            (_digest(np.ascontiguousarray(X[:, f]).tobytes()), fit_key)
            for f in range(X.shape[1])
        ]
        # Presort every column once (stable); each node's sorted order is the
        # root order filtered by membership -- identical to re-sorting the
        # node's rows (stable sort of a subsequence preserves the original
        # relative order of equal elements), without the per-node argsort.
        orders = [np.argsort(X[:, f], kind="stable") for f in range(X.shape[1])]
        self._fit_X = X
        self._fit_y = y
        self._fit_memo = {} if split_memo is None else split_memo
        self._fit_scan_keys = scan_keys
        try:
            self._root = self._grow(orders, np.ones(X.shape[0], dtype=bool), depth=0)
        finally:
            del self._fit_X, self._fit_y, self._fit_memo, self._fit_scan_keys
        self._flat_cache = None
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for every row of ``X`` (vectorized).

        Whole chunks descend the flattened tree together: at each step every
        still-internal row gathers its node's feature and threshold and moves
        to a child, so the work per tree level is a few array ops instead of
        a Python node walk per row.  Identical comparisons, identical labels.
        """
        if self._root is None:
            raise RuntimeError("classifier is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[0] == 0:
            return np.empty(0, dtype=int)
        features, thresholds, lefts, rights, predictions = self._flat()
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            internal = features[nodes] >= 0
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            at = nodes[rows]
            go_left = X[rows, features[at]] <= thresholds[at]
            nodes[rows] = np.where(go_left, lefts[at], rights[at])
        return predictions[nodes].astype(int)

    def predict_one(self, x: np.ndarray) -> int:
        """Predict the class label of a single feature vector."""
        if self._root is None:
            raise RuntimeError("classifier is not fitted")
        return self._predict_one(np.asarray(x, dtype=float))

    def depth(self) -> int:
        """Actual depth of the grown tree."""
        if self._root is None:
            raise RuntimeError("classifier is not fitted")
        return self._depth_of(self._root)

    def n_leaves(self) -> int:
        """Number of leaves in the grown tree."""
        if self._root is None:
            raise RuntimeError("classifier is not fitted")
        return self._count_leaves(self._root)

    # -- internals ------------------------------------------------------

    def _class_counts(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(y, minlength=self.n_classes_).astype(float)

    def _expected_costs(self, counts: np.ndarray) -> np.ndarray:
        """Expected cost of predicting each class: ``sum_i counts[i] * C[i, j]``.

        Accepts a single ``(n_classes,)`` count vector or a stacked
        ``(n, n_classes)`` matrix.  Both shapes reduce over the true-class
        axis with the same in-order accumulation, so the batched threshold
        scan and the one-vector-at-a-time path produce bit-identical costs.
        """
        matrix = self.cost_matrix[: self.n_classes_, : self.n_classes_]
        return (counts[..., :, None] * matrix).sum(axis=-2)

    def _leaf_prediction(self, counts: np.ndarray) -> int:
        """The class minimizing expected cost under the node's distribution."""
        if self.cost_matrix is None:
            return int(np.argmax(counts))
        return int(np.argmin(self._expected_costs(counts)))

    def _node_impurity(self, counts: np.ndarray) -> float:
        """Expected cost (or Gini impurity) of the best single prediction."""
        total = counts.sum()
        if total <= 0:
            return 0.0
        if self.cost_matrix is None:
            probabilities = counts / total
            return float(1.0 - np.sum(probabilities ** 2))
        return float(np.min(self._expected_costs(counts)) / total)

    def _impurity_rows(self, counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """:meth:`_node_impurity` for a stack of count vectors at once.

        ``totals`` must be the (positive) per-row count sums; every row's
        value is bit-identical to the scalar helper's.
        """
        if self.cost_matrix is None:
            probabilities = counts / totals[:, None]
            return 1.0 - np.sum(probabilities ** 2, axis=1)
        return np.min(self._expected_costs(counts), axis=1) / totals

    def _grow(self, orders: List[np.ndarray], rows: np.ndarray, depth: int) -> _Node:
        """Grow the subtree over ``rows`` (a mask of the fit's rows)."""
        y = self._fit_y[orders[0]]
        counts = self._class_counts(y)
        prediction = self._leaf_prediction(counts)
        node = _Node(prediction=prediction)

        if (
            depth >= self.max_depth
            or y.shape[0] < self.min_samples_split
            or np.count_nonzero(counts) <= 1
        ):
            return node

        split = self._best_split(orders, counts, _digest(np.packbits(rows).tobytes()))
        if split is None:
            return node
        feature, threshold = split
        go_left = self._fit_X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow([o[go_left[o]] for o in orders], rows & go_left, depth + 1)
        node.right = self._grow([o[~go_left[o]] for o in orders], rows & ~go_left, depth + 1)
        return node

    def _best_split(
        self, orders: List[np.ndarray], parent_counts: np.ndarray, rows_key: bytes
    ) -> Optional[tuple]:
        """Fold the per-feature scans in feature order.

        The running best is replaced only on strict improvement, so the
        first feature (and, within it, the first threshold) wins ties.
        Scans come from the fit's memo when any fit already made them.
        Threads may share the memo without a lock: entries are only ever
        added, and every fit that computes a key stores the same answer.
        """
        parent_impurity = self._node_impurity(parent_counts)
        memo = self._fit_memo
        best_gain = 1e-12
        best: Optional[tuple] = None
        for feature, order in enumerate(orders):
            key = self._fit_scan_keys[feature] + (rows_key,)
            if key in memo:
                scan = memo[key]
            else:
                scan = self._scan_feature(feature, order, parent_counts, parent_impurity)
                memo[key] = scan
            if scan is not None and scan[0] > best_gain:
                best_gain = scan[0]
                best = (feature, scan[1])
        return best

    def _scan_feature(
        self,
        feature: int,
        order: np.ndarray,
        parent_counts: np.ndarray,
        parent_impurity: float,
    ) -> ScanResult:
        """The best ``(gain, threshold)`` of one feature at a node, or None."""
        n_samples = order.shape[0]
        column = self._fit_X[order, feature]  # ascending by construction
        thresholds = self._candidate_thresholds_sorted(column)
        if thresholds.shape[0] == 0:
            return None
        # The left side of threshold t is exactly the first
        # searchsorted(t) samples of the sorted column, so cumulative
        # one-hot label counts give every threshold's (integer-exact)
        # class counts in one pass instead of a mask + bincount per
        # threshold.
        cumulative = np.zeros((n_samples + 1, self.n_classes_), dtype=np.int64)
        cumulative[np.arange(1, n_samples + 1), self._fit_y[order]] = 1
        np.cumsum(cumulative, axis=0, out=cumulative)
        n_left = np.searchsorted(column, thresholds, side="right")
        n_right = n_samples - n_left
        valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        if not valid.any():
            return None
        candidates = np.flatnonzero(valid)
        left_counts = cumulative[n_left[candidates]].astype(float)
        right_counts = parent_counts - left_counts
        impurity = (
            n_left[candidates] * self._impurity_rows(left_counts, left_counts.sum(axis=1))
            + n_right[candidates] * self._impurity_rows(right_counts, right_counts.sum(axis=1))
        ) / n_samples
        gains = parent_impurity - impurity
        # Within a feature the winner is the *first* threshold attaining
        # the maximum gain, as in a scalar scan that replaces its running
        # best only on strict improvement.
        pick = int(np.argmax(gains))
        return float(gains[pick]), float(thresholds[candidates[pick]])

    def _candidate_thresholds(self, column: np.ndarray) -> np.ndarray:
        unique = np.unique(column)
        if unique.shape[0] <= 1:
            return np.empty(0)
        midpoints = (unique[:-1] + unique[1:]) / 2.0
        if midpoints.shape[0] <= self.max_thresholds:
            return midpoints
        quantiles = np.linspace(0.0, 1.0, self.max_thresholds + 2)[1:-1]
        return np.unique(np.quantile(column, quantiles))

    def _candidate_thresholds_sorted(self, column: np.ndarray) -> np.ndarray:
        """:meth:`_candidate_thresholds` for an already-ascending column.

        Distinct values fall out of a run-boundary scan and quantiles out of
        direct order-statistic interpolation, skipping the sort/partition
        that ``np.unique``/``np.quantile`` would redo per node per feature.
        NaN-bearing columns (whose NaNs ``np.unique`` collapses but a
        ``!=`` scan would not) fall back to the reference implementation.
        """
        n = column.shape[0]
        if n == 0:
            return np.empty(0)
        if column[-1] != column[-1]:  # sorted => NaNs, if any, are at the end
            return self._candidate_thresholds(column)
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(column[1:], column[:-1], out=keep[1:])
        unique = column[keep]
        if unique.shape[0] <= 1:
            return np.empty(0)
        midpoints = (unique[:-1] + unique[1:]) / 2.0
        if midpoints.shape[0] <= self.max_thresholds:
            return midpoints
        quantiles = np.linspace(0.0, 1.0, self.max_thresholds + 2)[1:-1]
        return np.unique(_sorted_quantile(column, quantiles))

    def _flat(self) -> tuple:
        """Array view of the tree for vectorized descent.

        Returns ``(features, thresholds, lefts, rights, predictions)`` where
        ``features[i] == -1`` marks a leaf.  Built lazily and memoized
        (``getattr`` so trees unpickled from older caches work too).
        """
        cache = getattr(self, "_flat_cache", None)
        if cache is None:
            features: List[int] = []
            thresholds: List[float] = []
            lefts: List[int] = []
            rights: List[int] = []
            predictions: List[int] = []

            def visit(node: _Node) -> int:
                index = len(features)
                features.append(-1)
                thresholds.append(0.0)
                lefts.append(0)
                rights.append(0)
                predictions.append(node.prediction)
                if not node.is_leaf:
                    features[index] = node.feature
                    thresholds[index] = node.threshold
                    lefts[index] = visit(node.left)  # type: ignore[arg-type]
                    rights[index] = visit(node.right)  # type: ignore[arg-type]
                return index

            assert self._root is not None
            visit(self._root)
            cache = (
                np.asarray(features, dtype=np.int64),
                np.asarray(thresholds, dtype=float),
                np.asarray(lefts, dtype=np.int64),
                np.asarray(rights, dtype=np.int64),
                np.asarray(predictions, dtype=np.int64),
            )
            self._flat_cache = cache
        return cache

    def _predict_one(self, x: np.ndarray) -> int:
        node = self._root
        assert node is not None
        while not node.is_leaf:
            if x[node.feature] <= node.threshold:
                node = node.left  # type: ignore[assignment]
            else:
                node = node.right  # type: ignore[assignment]
        return node.prediction

    def _depth_of(self, node: _Node) -> int:
        if node.is_leaf:
            return 0
        return 1 + max(self._depth_of(node.left), self._depth_of(node.right))  # type: ignore[arg-type]

    def _count_leaves(self, node: _Node) -> int:
        if node.is_leaf:
            return 1
        return self._count_leaves(node.left) + self._count_leaves(node.right)  # type: ignore[arg-type]

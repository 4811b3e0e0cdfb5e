"""Tests for the cost-sensitive decision tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.decision_tree import DecisionTreeClassifier, _sorted_quantile


def make_separable(n=200, seed=0):
    """Two classes separable on feature 0 at threshold 0."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] > 0).astype(int)
    return X, y


class TestDecisionTree:
    def test_fits_separable_data(self):
        X, y = make_separable()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert np.mean(tree.predict(X) == y) > 0.98

    def test_generalizes_on_separable_data(self):
        X, y = make_separable(seed=0)
        X_test, y_test = make_separable(seed=1)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert np.mean(tree.predict(X_test) == y_test) > 0.95

    def test_single_class_predicts_it(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        y = np.full(20, 3)
        tree = DecisionTreeClassifier().fit(X, y)
        assert np.all(tree.predict(X) == 3)

    def test_depth_and_leaves_bounded(self):
        X, y = make_separable(n=300)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert tree.depth() <= 4
        assert tree.n_leaves() <= 2 ** 4

    def test_predict_one_matches_predict(self):
        X, y = make_separable()
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.predict_one(X[0]) == tree.predict(X[:1])[0]

    def test_multiclass(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 2))
        y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert np.mean(tree.predict(X) == y) > 0.9

    def test_cost_matrix_shifts_predictions(self):
        """A heavy penalty for predicting class 0 when truth is 1 makes the
        tree prefer class 1 in ambiguous regions."""
        rng = np.random.default_rng(3)
        # Overlapping classes: feature is pure noise, 60/40 split toward 0.
        X = rng.normal(size=(300, 1))
        y = (rng.random(300) > 0.6).astype(int)
        plain = DecisionTreeClassifier(max_depth=2).fit(X, y)
        cost = np.array([[0.0, 1.0], [50.0, 0.0]])  # predicting 0 for true 1 is awful
        costly = DecisionTreeClassifier(max_depth=2, cost_matrix=cost).fit(X, y)
        assert np.mean(plain.predict(X) == 0) > 0.5
        assert np.mean(costly.predict(X) == 1) > 0.5

    def test_cost_matrix_too_small_rejected(self):
        X = np.zeros((10, 1))
        y = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 2])
        with pytest.raises(ValueError):
            DecisionTreeClassifier(cost_matrix=np.zeros((2, 2))).fit(X, y)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_rejects_bad_shapes(self):
        tree = DecisionTreeClassifier()
        with pytest.raises(ValueError):
            tree.fit(np.zeros(5), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            tree.fit(np.zeros((5, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            tree.fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_bad_constructor_args(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)
        # 0 used to grow a single leaf silently; a negative cap failed deep
        # inside fit with NumPy's linspace error.
        with pytest.raises(ValueError, match="max_thresholds"):
            DecisionTreeClassifier(max_thresholds=0)
        with pytest.raises(ValueError, match="max_thresholds"):
            DecisionTreeClassifier(max_thresholds=-3)


class TestDecisionTreeEdgeCases:
    def test_single_class_tree_is_a_leaf(self):
        """All-identical labels must produce a split-free tree."""
        X = np.random.default_rng(1).normal(size=(40, 4))
        y = np.zeros(40, dtype=int)
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert tree.depth() == 0
        assert tree.n_leaves() == 1
        assert np.all(tree.predict(X) == 0)

    def test_single_class_with_cost_matrix(self):
        """A cost matrix must not destabilize the degenerate one-class case."""
        X = np.random.default_rng(2).normal(size=(30, 2))
        y = np.full(30, 2)
        cost = np.array(
            [
                [0.0, 5.0, 9.0],
                [5.0, 0.0, 5.0],
                [9.0, 5.0, 0.0],
            ]
        )
        tree = DecisionTreeClassifier(cost_matrix=cost).fit(X, y)
        assert np.all(tree.predict(X) == 2)

    def test_constant_features_produce_no_split(self):
        """Zero-information (constant) feature columns admit no threshold."""
        X = np.ones((50, 3))
        y = np.random.default_rng(3).integers(0, 2, size=50)
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        assert tree.depth() == 0
        majority = np.argmax(np.bincount(y))
        assert np.all(tree.predict(X) == majority)

    def test_zero_cost_matrix_fits_without_splitting(self):
        """An all-zero cost matrix makes every impurity zero: no gain, no split."""
        X, y = make_separable(n=60)
        cost = np.zeros((2, 2))
        tree = DecisionTreeClassifier(max_depth=4, cost_matrix=cost).fit(X, y)
        assert tree.depth() == 0
        predictions = tree.predict(X)
        assert set(predictions.tolist()) <= {0, 1}

    def test_zero_cost_column_attracts_predictions(self):
        """A class whose prediction-cost column is zero is always the
        cost-minimizing leaf prediction, however rare it is."""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 2))
        y = np.array([1] * 59 + [0])
        cost = np.array(
            [
                [0.0, 4.0],
                [0.0, 0.0],  # predicting class 0 never costs anything
            ]
        )
        tree = DecisionTreeClassifier(max_depth=3, cost_matrix=cost).fit(X, y)
        assert np.all(tree.predict(X) == 0)

    def test_mismatched_cost_matrix_rejected(self):
        X, y = make_separable(n=30)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(cost_matrix=np.zeros((1, 1))).fit(X, y)


def _column(values):
    return np.sort(np.asarray(values, dtype=float))


class TestCandidateThresholds:
    """The split search scans each presorted column for its candidate
    thresholds; ``_candidate_thresholds`` (``np.unique`` and ``np.quantile``
    on the raw column) is the reference it must reproduce bit for bit."""

    @pytest.mark.parametrize(
        "column",
        [
            _column([]),
            _column(np.full(10, 2.5)),
            _column(np.random.default_rng(0).choice([1.0, 2.0, 4.0], size=40)),
            _column(np.random.default_rng(1).normal(size=500)),
            _column(np.random.default_rng(2).integers(0, 200, size=600)),
            _column([-0.0, 0.0, 1.0, -1.0] * 5),
            _column(np.concatenate([np.random.default_rng(3).normal(size=50), [np.nan] * 2])),
            _column(np.concatenate([np.arange(25.0), [np.inf]])),
        ],
        ids=[
            "empty", "constant", "few-distinct", "many-distinct", "many-ties",
            "signed-zeros", "nan-tail", "inf-tail",
        ],
    )
    def test_sorted_scan_matches_reference(self, column):
        """The inf tail has 26 distinct values, more than either cap, and its
        last quantile at 24 thresholds interpolates towards ``inf`` (NaN)."""
        for max_thresholds in (4, 24):
            tree = DecisionTreeClassifier(max_thresholds=max_thresholds)
            with np.errstate(invalid="ignore"):
                fast = tree._candidate_thresholds_sorted(column)
                reference = tree._candidate_thresholds(column)
            assert fast.tobytes() == reference.tobytes()


column_values = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.5, np.inf, -np.inf]),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(
    values=column_values,
    grid=st.integers(1, 30),
    extra=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
        max_size=6,
    ),
)
def test_sorted_quantile_is_np_quantile_bit_for_bit(values, grid, extra):
    """On the caller's quantile grid and on drawn quantiles, NaN matching
    NaN and the sign of zero compared.

    A column holding both ``-0.0`` and ``0.0`` is the exception:
    ``np.quantile``'s partition puts those equal values in no fixed order,
    so the sign of a zero quantile is not defined there, only its value.
    """
    column = np.asarray(values, dtype=float)
    quantiles = np.concatenate([np.linspace(0.0, 1.0, grid + 2)[1:-1], extra])
    with np.errstate(invalid="ignore"):
        fast = _sorted_quantile(np.sort(column), quantiles)
        reference = np.quantile(column, quantiles)
    nan = np.isnan(reference)
    assert np.array_equal(np.isnan(fast), nan)
    if np.unique(np.signbit(column[column == 0.0])).shape[0] > 1:
        assert np.array_equal(fast[~nan], reference[~nan])
    else:
        assert fast[~nan].tobytes() == reference[~nan].tobytes()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(8, 80),
    n_classes=st.integers(2, 5),
    seed=st.integers(0, 1000),
)
def test_property_predictions_are_known_classes(n, n_classes, seed):
    """Property: predictions are always labels that appeared in training."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, n_classes, size=n)
    tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
    predictions = tree.predict(rng.normal(size=(50, 3)))
    assert set(predictions.tolist()) <= set(np.unique(y).tolist())

"""Tests for the Figure 6, 7, and 8 drivers."""

import numpy as np
import pytest

from repro.experiments.figure6 import distribution_from_result, run_figure6
from repro.experiments.figure7 import model_figure7a, model_figure7b
from repro.experiments.figure8 import landmark_sweep
from repro.experiments.runner import ExperimentConfig, run_experiment

TINY = ExperimentConfig(
    n_inputs=26,
    n_clusters=4,
    tuner_generations=2,
    tuner_population=5,
    tuning_neighbors=2,
    max_subsets=8,
    seed=2,
)


#: The scale of the binpacking and sort2 panels below; the executor is
#: pinned so the result does not depend on ``REPRO_EXECUTOR``.
SMALL = ExperimentConfig(
    n_inputs=60,
    n_clusters=6,
    tuner_generations=3,
    tuner_population=6,
    tuning_neighbors=2,
    max_subsets=24,
    seed=0,
    executor="serial",
)


@pytest.fixture(scope="module")
def sort_result():
    return run_experiment("sort2", TINY)


@pytest.fixture(scope="module")
def small_results():
    return {name: run_experiment(name, SMALL) for name in ("sort2", "binpacking")}


class TestFigure6:
    def test_distribution_is_sorted_and_sized(self, sort_result):
        panel = distribution_from_result(sort_result)
        assert panel.test_name == "sort2"
        assert len(panel.speedups) == len(sort_result.test_rows)
        assert np.all(np.diff(panel.speedups) >= 0.0)

    def test_statistics(self, sort_result):
        panel = distribution_from_result(sort_result)
        assert panel.maximum >= panel.mean
        assert 0.0 <= panel.tail_fraction(2.0) <= 1.0
        q25, q50, q75 = panel.quantiles()
        assert q25 <= q50 <= q75

    def test_binpacking_panel_has_a_right_tail(self, small_results):
        panel = distribution_from_result(small_results["binpacking"])
        assert len(panel.speedups) > 0
        assert panel.maximum >= panel.mean

    def test_run_figure6_returns_panel_per_test(self):
        panels = run_figure6(["sort2"], config=TINY)
        assert set(panels) == {"sort2"}


class TestFigure7:
    def test_figure7a_one_curve_per_config_count(self):
        curves = model_figure7a(config_counts=(2, 5, 9), n_points=50)
        assert set(curves) == {2, 5, 9}
        for curve in curves.values():
            assert curve.x.shape == curve.y.shape == (50,)
            assert np.all((curve.y >= 0.0) & (curve.y <= 1.0))

    def test_figure7a_more_configs_lower_loss(self):
        curves = model_figure7a(config_counts=(2, 9), n_points=100)
        assert curves[9].y.max() < curves[2].y.max()

    def test_figure7a_default_peaks_fall_with_every_config(self):
        curves = model_figure7a()
        assert set(curves) == {2, 3, 4, 5, 6, 7, 8, 9}
        peaks = [float(curves[k].y.max()) for k in sorted(curves)]
        assert all(b < a for a, b in zip(peaks, peaks[1:]))

    def test_figure7b_monotone_increasing(self):
        curve = model_figure7b(landmark_counts=range(10, 101, 10))
        assert np.all(np.diff(curve.y) >= 0.0)
        assert curve.y[0] < curve.y[-1]
        assert curve.y[-1] > 0.95


class TestFigure8:
    def test_landmark_sweep_structure(self, sort_result):
        points = landmark_sweep(sort_result, landmark_counts=[1, 2], n_subsets=5, seed=0)
        assert [p.n_landmarks for p in points] == [1, 2]
        for point in points:
            assert len(point.speedups) == 5
            assert point.minimum <= point.first_quartile <= point.median
            assert point.median <= point.third_quartile <= point.maximum

    def test_single_landmark_speedup_at_most_one(self, sort_result):
        """With one landmark there is nothing to adapt: the restricted dynamic
        oracle equals the restricted static oracle."""
        points = landmark_sweep(sort_result, landmark_counts=[1], n_subsets=4, seed=1)
        assert points[0].maximum == pytest.approx(1.0)

    def test_full_landmark_set_at_least_single(self, sort_result):
        total = sort_result.training.dataset.n_landmarks
        points = landmark_sweep(
            sort_result, landmark_counts=[1, total], n_subsets=6, seed=2
        )
        assert points[1].median >= points[0].median - 1e-9

    @pytest.mark.parametrize("test_name", ["sort2", "binpacking"])
    def test_more_landmarks_never_hurt(self, small_results, test_name):
        result = small_results[test_name]
        total = result.training.dataset.n_landmarks
        counts = sorted({1, 2, max(3, total // 2), total})
        points = landmark_sweep(result, landmark_counts=counts, n_subsets=20, seed=0)
        medians = [point.median for point in points]
        assert medians[-1] >= medians[0] - 1e-9
        assert all(median >= 1.0 - 1e-6 for median in medians)

    def test_classifier_mode_runs(self, sort_result):
        points = landmark_sweep(
            sort_result, landmark_counts=[2], n_subsets=2, mode="classifier", seed=3
        )
        assert len(points) == 1

    def test_unknown_mode_rejected(self, sort_result):
        with pytest.raises(ValueError):
            landmark_sweep(sort_result, landmark_counts=[2], n_subsets=1, mode="bogus")

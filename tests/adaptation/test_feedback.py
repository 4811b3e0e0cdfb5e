"""Tests for the feedback log: order, bounds, windows and thread safety."""

import threading

import numpy as np
import pytest

from repro.adaptation import FeedbackLog, FeedbackRecord


def make_record(i: int) -> FeedbackRecord:
    return FeedbackRecord(
        features=(float(i), float(i) * 2.0, 0.5),
        predicted_label=i % 3,
        observed_cost=100.0 + i,
        observed_accuracy=1.0,
    )


class TestFeedbackLog:
    def test_append_and_order(self):
        log = FeedbackLog(capacity=10)
        for i in range(5):
            log.append(make_record(i))
        assert len(log) == 5
        assert [r.predicted_label for r in log] == [0, 1, 2, 0, 1]

    def test_capacity_evicts_oldest(self):
        log = FeedbackLog(capacity=3)
        for i in range(8):
            log.append(make_record(i))
        assert len(log) == 3
        assert log.evicted == 5
        assert log.total_appended == 8
        assert [r.observed_cost for r in log.records()] == [105.0, 106.0, 107.0]

    def test_window_returns_most_recent(self):
        log = FeedbackLog(capacity=10)
        for i in range(6):
            log.append(make_record(i))
        window = log.window(2)
        assert [r.observed_cost for r in window] == [104.0, 105.0]
        # A window wider than the log returns everything retained.
        assert len(log.window(100)) == 6

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            FeedbackLog(capacity=0)
        with pytest.raises(ValueError):
            FeedbackLog().window(0)

    def test_feature_matrix_shape(self):
        log = FeedbackLog()
        for i in range(4):
            log.append(make_record(i))
        matrix = log.feature_matrix()
        assert matrix.shape == (4, 3)
        np.testing.assert_allclose(matrix[2], [2.0, 4.0, 0.5])
        assert FeedbackLog().feature_matrix().shape == (0, 0)

    def test_concurrent_appends_lose_nothing(self):
        log = FeedbackLog(capacity=10_000)
        n_threads, per_thread = 8, 250
        barrier = threading.Barrier(n_threads)

        def hammer(worker: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                log.append(make_record(worker * per_thread + i))

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(log) == n_threads * per_thread
        assert log.total_appended == n_threads * per_thread
        assert log.evicted == 0
        # Every record made it in exactly once.
        costs = sorted(r.observed_cost for r in log.records())
        assert costs == [100.0 + i for i in range(n_threads * per_thread)]

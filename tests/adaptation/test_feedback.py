"""Tests for the feedback log: bounds, thread safety, trace round-trip."""

import json
import threading

import numpy as np
import pytest

from repro.adaptation import FeedbackLog, FeedbackRecord


def make_record(i: int, **overrides) -> FeedbackRecord:
    fields = dict(
        features=(float(i), float(i) * 2.0, 0.5),
        predicted_label=i % 3,
        chosen_landmark=i % 3,
        observed_cost=100.0 + i,
        observed_accuracy=1.0,
    )
    fields.update(overrides)
    return FeedbackRecord(**fields)


class TestFeedbackRecord:
    def test_json_round_trip(self):
        record = make_record(7, input_spec={"encoding": "index", "index": 7, "test": "sort2"})
        restored = FeedbackRecord.from_json(record.to_json())
        assert restored == record

    def test_json_round_trip_without_spec(self):
        record = make_record(0)
        assert "input_spec" not in record.to_json()
        assert FeedbackRecord.from_json(record.to_json()) == record

    def test_malformed_record_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            FeedbackRecord.from_json({"features": [1.0]})

    def test_materialize_index_spec_matches_source(self):
        from repro.benchmarks_suite import get_benchmark

        variant = get_benchmark("sort2")
        expected = variant.benchmark.input_source(6, variant.variant, seed=3).materialize(5)
        record = make_record(
            5, input_spec={"encoding": "index", "index": 5, "seed": 3, "test": "sort2"}
        )
        np.testing.assert_array_equal(record.materialize_input(), expected)

    def test_materialize_without_spec_raises(self):
        with pytest.raises(ValueError, match="no input spec"):
            make_record(0).materialize_input()

    def test_materialize_unknown_encoding_raises(self):
        record = make_record(0, input_spec={"encoding": "carrier-pigeon"})
        with pytest.raises(ValueError, match="unknown input encoding"):
            record.materialize_input()

    @pytest.mark.parametrize(
        "spec,field",
        [
            ({"encoding": "index", "test": "sort2"}, "'index'"),
            ({"encoding": "index", "test": "no-such-test", "index": 0}, "'test'"),
            ({"encoding": "pickle"}, "'payload'"),
            ({"encoding": "pickle", "payload": "aGVsbG8="}, "'payload'"),
        ],
        ids=["missing-index", "unknown-test", "missing-payload", "unpicklable-payload"],
    )
    def test_malformed_spec_raises_value_error_naming_field(self, spec, field):
        """A trace read from disk gets a clean error, not a KeyError or an
        UnpicklingError from deep inside the decoder."""
        record = make_record(0, input_spec=spec)
        with pytest.raises(ValueError, match=field):
            record.materialize_input()


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


class TestTracePersistence:
    def test_save_and_load_round_trip(self, tmp_path):
        log = FeedbackLog(capacity=10)
        for i in range(5):
            log.append(make_record(i, input_spec={"encoding": "index", "index": i, "test": "sort2"}))
        path = str(tmp_path / "trace.jsonl")
        assert log.save_trace(path) == 5
        restored = FeedbackLog.load_trace(path)
        assert restored.records() == log.records()

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        record = make_record(1)
        path.write_text(json.dumps(record.to_json()) + "\n\n\n")
        restored = FeedbackLog.load_trace(str(path))
        assert restored.records() == [record]

    def test_load_reports_bad_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(make_record(0).to_json()) + "\nnot-json\n")
        with pytest.raises(ValueError, match=r"trace\.jsonl:2"):
            FeedbackLog.load_trace(str(path))

    def test_load_respects_capacity(self, tmp_path):
        log = FeedbackLog()
        for i in range(6):
            log.append(make_record(i))
        path = str(tmp_path / "trace.jsonl")
        log.save_trace(path)
        restored = FeedbackLog.load_trace(path, capacity=2)
        assert len(restored) == 2
        assert restored.evicted == 4

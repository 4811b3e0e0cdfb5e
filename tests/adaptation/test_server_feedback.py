"""The serving layer's feedback hook: every execution appends one record.

The adaptation loop is only as good as its signal; these tests pin the
contract between :class:`SelectorServer` and :class:`FeedbackLog` -- one
record per executed request, carrying the full feature vector, the label
actually served, the measured cost, and a self-contained input spec that
rematerializes the exact input offline.
"""

import numpy as np
import pytest

from repro.adaptation import FeedbackLog
from repro.benchmarks_suite import get_benchmark
from repro.serving import SelectorServer, ServerThread, ServingClient, protocol

# Everything here touches real sockets; a refused connect is retried by
# ServingClient's connect loop (see repro.serving.client).

@pytest.fixture()
def feedback_server(sort_training):
    """A running server with a feedback log attached, plus the log."""
    log = FeedbackLog(capacity=64)
    server = SelectorServer(feedback=log)
    server.publish("sort2", sort_training["training"].deployed)
    with ServerThread(server):
        yield server, log


def connect(server):
    host, port = server.address
    return ServingClient(host, port)


class TestServerFeedback:
    def test_index_request_appends_a_self_contained_record(
        self, feedback_server
    ):
        server, log = feedback_server
        with connect(server) as client:
            response = client.run(
                "sort2", protocol.index_input(3, seed=999)
            )
        assert response["type"] == "result"
        assert len(log) == 1
        record = log.records()[0]

        # The record mirrors the served response exactly.
        assert record.predicted_label == response["landmark"]
        assert record.chosen_landmark == response["landmark"]
        assert record.observed_cost == response["total_time"]
        assert record.observed_accuracy == response["accuracy"]

        # The wire spec was enriched with the test name and seed, so the
        # stored trace rematerializes the input with no server context.
        assert record.input_spec["encoding"] == "index"
        assert record.input_spec["test"] == "sort2"
        assert record.input_spec["seed"] == 999
        variant = get_benchmark("sort2")
        expected = variant.benchmark.input_source(
            4, variant.variant, seed=999
        ).materialize(3)
        np.testing.assert_array_equal(record.materialize_input(), expected)

        # The features are the full vector of the input the server ran.
        program = variant.benchmark.program
        values, _ = program.features.extract_vector(expected)
        assert record.features == tuple(float(v) for v in values)

    def test_pickle_request_round_trips_through_the_record(
        self, feedback_server
    ):
        server, log = feedback_server
        data = [5, 3, 1, 2, 4, 0, 6]
        with connect(server) as client:
            response = client.run("sort2", protocol.pickle_input(data))
        assert response["type"] == "result"
        record = log.records()[0]
        assert record.input_spec["encoding"] == "pickle"
        assert list(record.materialize_input()) == data

    def test_every_execution_appends_even_on_cache_recall(
        self, feedback_server
    ):
        server, log = feedback_server
        with connect(server) as client:
            for _ in range(3):
                response = client.run("sort2", protocol.index_input(1))
                assert response["type"] == "result"
        # Sequential duplicates recall the run cache but still each carry
        # a training signal: three requests, three records.
        assert log.total_appended == 3
        counters = server.runtime.stats()["telemetry"]["counters"]
        assert counters["serve_feedback_records"] == 3
        assert counters["serve_feedback_records"] == counters["serve_executions"]

    def test_no_log_means_no_feedback_counter(self, sort_training):
        server = SelectorServer()
        server.publish("sort2", sort_training["training"].deployed)
        with ServerThread(server):
            with connect(server) as client:
                assert client.run("sort2", protocol.index_input(0))[
                    "type"
                ] == "result"
        counters = server.runtime.stats()["telemetry"]["counters"]
        assert "serve_feedback_records" not in counters

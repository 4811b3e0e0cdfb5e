"""Tests for the serving layer: protocol, registry, server, coalescing.

The determinism tests are the serving contract in miniature: whatever mix
of concurrency, coalescing, cache recall, and mid-stream hot-swap a client
population throws at the server, every response's measured fields must be
byte-identical to what a sequential ``DeployedProgram.run`` loop produces.
"""

import random
import socket
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.benchmarks_suite import get_benchmark
from repro.core.pipeline import DeployedProgram
from repro.lang.config import ConfigurationSpace, IntegerParameter
from repro.lang.cost import charge
from repro.lang.program import PetaBricksProgram
from repro.serving import (
    ModelRegistry,
    SelectorServer,
    ServerThread,
    ServingClient,
    ServingConfig,
    protocol,
)

from repro.resilience.faults import FaultPlan, FaultSpec, fault_scope
from repro.runtime import RunCache, Runtime


def wait_until(predicate, timeout=10.0):
    """Poll a predicate every 5 ms until true (or the timeout runs out)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


class _ZeroClassifier:
    """Stub classifier: always landmark 0, fixed extraction cost."""

    name = "zero"

    def classify_input(self, program_input, features):
        return 0, 0.5


class _CountingClassifier:
    """Stub classifier counting its calls per input; its label 1 is one
    past a single landmark, so every classification is also clamped."""

    name = "counting"

    def __init__(self):
        self.calls = Counter()

    def classify_input(self, program_input, features):
        self.calls[program_input] += 1
        return 1, 0.5


def gated_program(name="gated"):
    """A program whose executions block until the returned gate opens."""
    gate = threading.Event()

    def run(config, program_input):
        gate.wait(timeout=30)
        charge(float(program_input))
        return program_input

    space = ConfigurationSpace([IntegerParameter("x", 1, 4)])
    return PetaBricksProgram(name, space, run), gate


def gated_deployment(name="gated"):
    """A one-landmark deployed program over a gated stub (plus its gate)."""
    program, gate = gated_program(name)
    deployed = DeployedProgram(
        program, [program.default_configuration()], _ZeroClassifier()
    )
    return deployed, gate


@pytest.fixture(scope="module")
def sort_server(sort_training):
    """A running server with the small trained sort selector published."""
    server = SelectorServer()
    server.publish("sort2", sort_training["training"].deployed)
    with ServerThread(server):
        yield server


def connect(server):
    host, port = server.address
    return ServingClient(host, port)


class TestProtocol:
    def test_message_round_trip(self):
        message = {"type": "run", "id": 7, "test": "sort2"}
        assert protocol.decode_message(protocol.encode_message(message)) == message

    def test_rejects_non_object_frames(self):
        with pytest.raises(ValueError):
            protocol.decode_message(b"[1, 2]\n")

    def test_input_spec_builders(self):
        spec = protocol.index_input(12, seed=999, variant="synthetic")
        assert spec == {
            "encoding": "index", "index": 12, "seed": 999, "variant": "synthetic",
        }
        data = [3, 1, 2]
        back = protocol.decode_payload(protocol.pickle_input(data)["payload"])
        assert back == data

    @pytest.mark.parametrize(
        "spec,test,error",
        [
            ({"encoding": "index", "index": 5, "seed": 3}, "sort2", None),
            (None, "sort2", "no input spec"),
            ({"encoding": "carrier-pigeon"}, "sort2", "unknown input encoding"),
            ({"encoding": "index"}, "sort2", "'index'"),
            ({"encoding": "index", "index": 0}, "no-such-test", "'test'"),
            ({"encoding": "pickle"}, "sort2", "'payload'"),
            ({"encoding": "pickle", "payload": "aGVsbG8="}, "sort2", "'payload'"),
            ({"encoding": "index", "index": 2}, "sort2", None),
            ({"encoding": "index", "index": -1}, "sort2", "non-negative"),
            ({"encoding": "index", "index": 0, "seed": "x"}, "sort2", "'seed'"),
            ({"encoding": "index", "index": 0}, None, "'test'"),
            ({"encoding": "index", "index": 0, "variant": "alien"}, "sort2", "'variant'"),
        ],
        ids=[
            "index-matches-population", "no-spec", "unknown-encoding",
            "missing-index", "unknown-test", "missing-payload", "undecodable-payload",
            "seed-defaults-to-zero", "negative-index", "non-integer-seed",
            "no-test-name", "unknown-variant",
        ],
    )
    def test_decode_input(self, spec, test, error):
        """An index spec rematerializes the population's input; a malformed
        spec raises a ValueError naming the field at fault, not a KeyError or
        an UnpicklingError from deep inside the decoder."""
        if error is not None:
            with pytest.raises(ValueError, match=error):
                protocol.decode_input(spec, test)
            return
        variant = get_benchmark(test)
        index = spec["index"]
        source = variant.benchmark.input_source(
            index + 1, variant.variant, seed=spec.get("seed", 0)
        )
        np.testing.assert_array_equal(
            protocol.decode_input(spec, test), source.materialize(index)
        )

    def test_run_request_shape(self):
        message = protocol.run_request(1, "sort2", protocol.index_input(0))
        assert message["type"] == "run"
        assert "want_output" not in message
        assert protocol.run_request(1, "t", {}, want_output=True)["want_output"]

    def test_decode_output(self):
        response = {"output": protocol.encode_payload([1, 2])}
        assert protocol.decode_output(response) == [1, 2]
        assert protocol.decode_output({"type": "result"}) is None

    def test_payload_round_trip(self):
        payload = {"a": [1, 2.5, "x"], "b": np.arange(4)}
        text = protocol.encode_payload(payload)
        assert isinstance(text, str) and text.isascii()  # rides a JSON string
        decoded = protocol.decode_payload(text)
        assert decoded["a"] == payload["a"]
        np.testing.assert_array_equal(decoded["b"], payload["b"])


class TestRegistry:
    def test_publish_versions_monotonic(self):
        registry = ModelRegistry()
        deployed, _gate = gated_deployment()
        assert registry.publish("a", deployed).version == 1
        assert registry.publish("a", deployed).version == 2
        assert registry.publish("b", deployed).version == 1
        assert registry.versions() == {"a": 2, "b": 1}
        assert registry.tests() == ["a", "b"]
        assert "a" in registry and len(registry) == 2

    def test_get_unknown_raises_with_choices(self):
        registry = ModelRegistry()
        registry.publish("a", gated_deployment()[0])
        with pytest.raises(KeyError, match="'a'"):
            registry.get("missing")

    def test_rejects_non_deployed_values(self):
        with pytest.raises(TypeError):
            ModelRegistry().publish("a", object())

    def test_concurrent_hot_swap_snapshots_are_complete(self):
        """Readers hammering ``get`` across a publish storm never observe a
        torn entry: every snapshot's deployed program is exactly the one
        published at that snapshot's version, and versions are monotone
        per reader."""
        registry = ModelRegistry()
        n_publishes = 200
        deployments = [gated_deployment(f"v{i}")[0] for i in range(n_publishes)]
        registry.publish("hot", deployments[0])

        errors = []
        stop = threading.Event()
        start = threading.Barrier(9)  # 8 readers + the publisher

        def reader():
            start.wait()
            last_version = 0
            while not stop.is_set():
                entry = registry.get("hot")
                if entry.deployed is not deployments[entry.version - 1]:
                    errors.append(
                        f"torn snapshot: version {entry.version} paired "
                        f"with the wrong deployed program"
                    )
                    return
                if entry.version < last_version:
                    errors.append(
                        f"version went backwards: {last_version} -> "
                        f"{entry.version}"
                    )
                    return
                last_version = entry.version

        def publisher():
            start.wait()
            for index in range(1, n_publishes):
                entry = registry.publish("hot", deployments[index])
                if entry.version != index + 1:
                    errors.append(
                        f"publish {index} returned version {entry.version}"
                    )
            stop.set()

        threads = [threading.Thread(target=reader) for _ in range(8)]
        threads.append(threading.Thread(target=publisher))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        final = registry.get("hot")
        assert final.version == n_publishes
        assert final.deployed is deployments[-1]


class TestServerBasics:
    def test_ping(self, sort_server):
        with connect(sort_server) as client:
            pong = client.ping()
        assert pong["type"] == "pong"
        assert pong["protocol"] == protocol.SERVING_PROTOCOL_VERSION

    def test_unknown_test_is_404(self, sort_server):
        with connect(sort_server) as client:
            response = client.run("nope", protocol.index_input(0))
        assert response["type"] == "error"
        assert response["code"] == protocol.UNKNOWN_TEST

    def test_malformed_frame_is_400(self, sort_server):
        with connect(sort_server) as client:
            client._sock.sendall(b"this is not json\n")
            response = client.recv()
        assert response["type"] == "error"
        assert response["code"] == protocol.BAD_REQUEST

    @pytest.mark.parametrize(
        "spec",
        [
            None,
            {"encoding": "alien"},
            {"encoding": "index"},
            {"encoding": "index", "index": -1},
            {"encoding": "index", "index": 0, "variant": "alien"},
            {"encoding": "pickle"},
            {"encoding": "pickle", "payload": "!!!not-base64!!!"},
        ],
    )
    def test_bad_input_specs_are_400(self, sort_server, spec):
        with connect(sort_server) as client:
            response = client.run("sort2", spec)
        assert response["type"] == "error"
        assert response["code"] == protocol.BAD_REQUEST

    def test_frame_split_across_writes_is_answered_once_whole(self, sort_server):
        frame = protocol.encode_message({"type": "ping"})
        with connect(sort_server) as client:
            client._sock.sendall(frame[:5])
            time.sleep(0.05)  # let the server read the partial frame alone
            client._sock.sendall(frame[5:])
            assert client.recv()["type"] == "pong"

    def test_frames_pipelined_in_one_write_are_answered_in_order(self, sort_server):
        frames = [{"type": "ping"}, {"type": "stats"}, {"type": "ping"}]
        with connect(sort_server) as client:
            client._sock.sendall(b"".join(map(protocol.encode_message, frames)))
            kinds = [client.recv()["type"] for _ in frames]
        assert kinds == ["pong", "stats", "pong"]

    def test_unknown_message_type_is_400(self, sort_server):
        with connect(sort_server) as client:
            response = client.request({"type": "dance"})
        assert response["code"] == protocol.BAD_REQUEST

    def test_run_matches_deployed_run(self, sort_server, sort_training):
        deployed = sort_training["training"].deployed
        data = sort_training["inputs"][0]
        expected = deployed.run(data)
        with connect(sort_server) as client:
            response = client.run("sort2", protocol.pickle_input(data), want_output=True)
        assert response["type"] == "result"
        assert response["landmark"] == expected.landmark_index
        assert response["time"] == expected.result.time
        assert response["accuracy"] == expected.result.accuracy
        assert response["feature_cost"] == expected.feature_extraction_cost
        assert response["total_time"] == expected.total_time
        assert np.array_equal(protocol.decode_output(response), expected.result.output)

    def test_index_input_equals_pickled_input(self, sort_server, sort_training):
        variant = sort_training["variant"]
        data = variant.benchmark.input_source(3, variant.variant, seed=999)[2]
        with connect(sort_server) as client:
            by_index = client.run("sort2", protocol.index_input(2, seed=999))
            by_value = client.run("sort2", protocol.pickle_input(data))
        # Identical content -> identical cache key -> the second is a recall
        # of the first, and every measured field matches exactly.
        assert by_value["cache_hit"] is True
        for field in ("landmark", "time", "accuracy", "feature_cost", "total_time"):
            assert by_index[field] == by_value[field]

    def test_repeat_is_cache_hit(self, sort_server, sort_training):
        data = sort_training["inputs"][1]
        with connect(sort_server) as client:
            first = client.run("sort2", protocol.pickle_input(data))
            second = client.run("sort2", protocol.pickle_input(data))
        assert second["cache_hit"] is True
        assert second["time"] == first["time"]

    def test_stats_snapshot(self, sort_server):
        with connect(sort_server) as client:
            client.run("sort2", protocol.index_input(0))
            stats = client.stats()
        assert stats["type"] == "stats"
        assert stats["models"]["sort2"] >= 1
        assert stats["protocol"] == protocol.SERVING_PROTOCOL_VERSION
        counters = stats["runtime"]["telemetry"]["counters"]
        assert counters["serve_requests"] >= 1
        latencies = stats["runtime"]["telemetry"]["latencies"]
        assert latencies["serve.selection"]["count"] >= 1
        assert latencies["serve.request"]["p99_seconds"] >= 0.0

    def test_response_latency_split_present(self, sort_server, sort_training):
        with connect(sort_server) as client:
            response = client.run(
                "sort2", protocol.pickle_input(sort_training["inputs"][3])
            )
        assert response["selection_seconds"] >= 0.0
        assert response["execution_seconds"] >= 0.0
        assert response["model_version"] >= 1


def leave_time_wait(host, port):
    """Leave a connection in TIME_WAIT on ``port``'s server side, as a
    server that closes its connections first on shutdown does."""
    with socket.socket() as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(1)
        with socket.create_connection((host, port)) as client:
            accepted, _peer = listener.accept()
            accepted.close()  # the server side closes first ...
        # ... so the client's close leaves that side in TIME_WAIT.


class TestRestart:
    def test_restart_rebinds_the_same_port_at_once(self, sort_training):
        """A restarted server must come straight back on its fixed port even
        while old connections linger in TIME_WAIT (``reuse_address``):
        clients reconnect to the address they know."""
        deployed = sort_training["training"].deployed
        first = SelectorServer()
        first.publish("sort2", deployed)
        with ServerThread(first):
            host, port = first.address
            with connect(first) as client:
                before = client.run("sort2", protocol.index_input(4))
        leave_time_wait(host, port)
        second = SelectorServer(config=ServingConfig(host=host, port=port))
        second.publish("sort2", deployed)
        with ServerThread(second):
            assert second.address == (host, port)
            with connect(second) as client:
                after = client.run("sort2", protocol.index_input(4))
        assert before["type"] == after["type"] == "result"
        for field in ("landmark", "time", "accuracy", "total_time"):
            assert after[field] == before[field]

    def test_stopped_server_starts_again(self, sort_training):
        """One server object runs twice: ``stop()`` releases its execution
        pool and ``start()`` builds a fresh one, so the second run still
        executes an input it has not seen."""
        deployed = sort_training["training"].deployed
        server = SelectorServer()
        server.publish("sort2", deployed)
        with ServerThread(server):
            with connect(server) as client:
                assert client.run("sort2", protocol.index_input(4))["type"] == "result"
        with ServerThread(server):
            with connect(server) as client:
                again = client.run("sort2", protocol.index_input(5))
        assert again["type"] == "result", again
        assert again["cache_hit"] is False

    def test_occupied_port_is_rejected(self):
        holder = SelectorServer()
        with ServerThread(holder):
            host, port = holder.address
            second = SelectorServer(config=ServingConfig(host=host, port=port))
            with pytest.raises(RuntimeError, match="failed to start") as info:
                ServerThread(second).start()
            assert isinstance(info.value.__cause__, OSError)
            # The holder keeps its port and keeps answering.
            with connect(holder) as client:
                assert client.ping()["type"] == "pong"


class TestCoalescing:
    def test_identical_inflight_requests_share_one_execution(self):
        deployed, gate = gated_deployment("coalesce")
        server = SelectorServer()
        server.publish("gated", deployed)
        with ServerThread(server):
            with connect(server) as a, connect(server) as b:
                a.send(protocol.run_request(1, "gated", protocol.pickle_input(7)))
                assert wait_until(lambda: len(server._inflight) == 1)
                b.send(protocol.run_request(2, "gated", protocol.pickle_input(7)))
                assert wait_until(
                    lambda: server.telemetry.counters.get("serve_coalesced", 0) == 1
                )
                gate.set()
                first, second = a.recv(), b.recv()
        assert first["type"] == second["type"] == "result"
        assert first["coalesced"] is False
        assert second["coalesced"] is True
        assert second["time"] == first["time"]
        assert server.telemetry.counters["runs_executed"] == 1
        assert server.telemetry.counters["serve_executions"] == 1

    def test_sequential_repeat_is_recall_not_join(self):
        deployed, gate = gated_deployment("recall")
        gate.set()  # executions never block
        server = SelectorServer()
        server.publish("gated", deployed)
        with ServerThread(server):
            with connect(server) as client:
                first = client.run("gated", protocol.pickle_input(3))
                second = client.run("gated", protocol.pickle_input(3))
        assert first["cache_hit"] is False and first["coalesced"] is False
        assert second["cache_hit"] is True and second["coalesced"] is False
        assert server.telemetry.counters["runs_executed"] == 1


class TestEventLoopAnswers:
    def test_recall_never_waits_behind_an_execution(self):
        deployed, gate = gated_deployment("inline")
        server = SelectorServer(config=ServingConfig(execution_workers=1))
        server.publish("gated", deployed)
        with ServerThread(server):
            host, port = server.address
            with connect(server) as a, ServingClient(host, port, timeout=5.0) as b:
                gate.set()
                first = a.run("gated", protocol.pickle_input(3))
                gate.clear()
                # An execution of another input now holds the only pool thread.
                a.send(protocol.run_request(1, "gated", protocol.pickle_input(4)))
                assert wait_until(lambda: len(server._inflight) == 1)
                try:
                    repeat = b.run("gated", protocol.pickle_input(3))
                    answered_while_held = not gate.is_set()
                finally:
                    gate.set()
                held = a.recv()
        assert answered_while_held
        assert repeat["type"] == "result"
        assert repeat["cache_hit"] is True and repeat["coalesced"] is False
        assert repeat["time"] == first["time"]
        assert held["type"] == "result" and held["cache_hit"] is False

    def test_selection_is_reused_per_model_entry(self):
        program, gate = gated_program("memo")
        gate.set()
        classifier = _CountingClassifier()
        deployed = DeployedProgram(
            program, [program.default_configuration()], classifier
        )
        server = SelectorServer()
        server.publish("memo", deployed)
        with ServerThread(server):
            with connect(server) as client:
                for value in (1, 2, 1, 2, 1):
                    response = client.run("memo", protocol.pickle_input(value))
                    assert response["type"] == "result"
                assert classifier.calls == {1: 1, 2: 1}
                assert server.telemetry.counters["selector_labels_clamped"] == 2
                server.publish("memo", deployed)  # hot-swap: a new model entry
                swapped = client.run("memo", protocol.pickle_input(1))
        assert swapped["model_version"] == 2 and swapped["cache_hit"] is True
        assert classifier.calls == {1: 2, 2: 1}
        assert server.telemetry.counters["selector_labels_clamped"] == 3

    def test_selection_memo_is_bounded_by_the_run_cache(self):
        """The memo keeps no more selections than the run cache keeps runs:
        with room for two, the first of three inputs is classified again."""
        program, gate = gated_program("bounded")
        gate.set()
        classifier = _CountingClassifier()
        deployed = DeployedProgram(
            program, [program.default_configuration()], classifier
        )
        runtime = Runtime(cache=RunCache(max_entries=2))
        server = SelectorServer(runtime=runtime)
        server.publish("bounded", deployed)
        try:
            with ServerThread(server):
                with connect(server) as client:
                    for value in (1, 2, 3, 1):
                        response = client.run("bounded", protocol.pickle_input(value))
                        assert response["type"] == "result"
        finally:
            runtime.close()
        assert classifier.calls == {1: 2, 2: 1, 3: 1}

    def test_selection_memo_evicts_the_least_recently_used(self):
        """A recalled selection counts as used: with room for two, input 1
        asked again before input 3 arrives outlives input 2."""
        program, gate = gated_program("recency")
        gate.set()
        classifier = _CountingClassifier()
        deployed = DeployedProgram(
            program, [program.default_configuration()], classifier
        )
        runtime = Runtime(cache=RunCache(max_entries=2))
        server = SelectorServer(runtime=runtime)
        server.publish("recency", deployed)
        try:
            with ServerThread(server):
                with connect(server) as client:
                    for value in (1, 2, 1, 3, 1):
                        response = client.run("recency", protocol.pickle_input(value))
                        assert response["type"] == "result"
        finally:
            runtime.close()
        assert classifier.calls == {1: 1, 2: 1, 3: 1}

    def test_runtime_without_a_run_cache_keeps_no_selections(self):
        """With no run cache nothing is recalled, so every request
        classifies its input afresh."""
        program, gate = gated_program("uncached")
        gate.set()
        classifier = _CountingClassifier()
        deployed = DeployedProgram(
            program, [program.default_configuration()], classifier
        )
        runtime = Runtime(cache=None)
        server = SelectorServer(runtime=runtime)
        server.publish("uncached", deployed)
        try:
            with ServerThread(server):
                with connect(server) as client:
                    answers = [
                        client.run("uncached", protocol.pickle_input(value))
                        for value in (1, 1, 2)
                    ]
        finally:
            runtime.close()
        assert [a["cache_hit"] for a in answers] == [False, False, False]
        assert classifier.calls == {1: 2, 2: 1}

    def test_recalls_still_fire_the_fault_site_once(self):
        deployed, gate = gated_deployment("sites")
        gate.set()
        server = SelectorServer()
        server.publish("gated", deployed)
        # A spec that never fires still counts the site's calls.
        plan = FaultPlan([FaultSpec(site="serve.execute", probability=0.0)])
        with fault_scope(plan) as injector:
            with ServerThread(server):
                with connect(server) as client:
                    answers = [
                        client.run("gated", protocol.pickle_input(value))
                        for value in (5, 5, 6)
                    ]
        assert [a["cache_hit"] for a in answers] == [False, True, False]
        assert injector.snapshot()["calls"]["serve.execute"] == 3


class TestBackpressure:
    def test_distinct_overflow_request_is_503(self):
        deployed, gate = gated_deployment("overload")
        server = SelectorServer(config=ServingConfig(max_pending=1))
        server.publish("gated", deployed)
        with ServerThread(server):
            with connect(server) as a, connect(server) as b:
                a.send(protocol.run_request(1, "gated", protocol.pickle_input(1)))
                assert wait_until(lambda: len(server._inflight) == 1)
                rejected = b.run("gated", protocol.pickle_input(2))
                # A coalescable duplicate adds no execution: always admitted.
                b.send(protocol.run_request(3, "gated", protocol.pickle_input(1)))
                assert wait_until(
                    lambda: server.telemetry.counters.get("serve_coalesced", 0) == 1
                )
                gate.set()
                admitted = a.recv()
                joined = b.recv()
        assert rejected["type"] == "error"
        assert rejected["code"] == protocol.OVERLOADED
        assert admitted["type"] == "result"
        assert joined["type"] == "result" and joined["coalesced"] is True
        assert server.telemetry.counters["serve_rejected"] == 1

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            SelectorServer(config=ServingConfig(max_pending=0))


class TestHotSwap:
    def test_swap_bumps_version_atomically(self, sort_training):
        deployed = sort_training["training"].deployed
        server = SelectorServer()
        server.publish("sort2", deployed)
        with ServerThread(server):
            with connect(server) as client:
                before = client.run("sort2", protocol.index_input(0))
                swapped = client.swap("sort2", deployed)
                after = client.run("sort2", protocol.index_input(0))
        assert swapped == {"type": "swapped", "id": None, "test": "sort2", "version": 2}
        assert before["model_version"] == 1
        assert after["model_version"] == 2
        # Identically retrained model -> byte-identical measurements.
        assert after["time"] == before["time"]
        assert after["landmark"] == before["landmark"]

    def test_swap_without_payload_is_400(self, sort_server):
        with connect(sort_server) as client:
            response = client.request({"type": "swap", "test": "sort2"})
        assert response["code"] == protocol.BAD_REQUEST

    def test_swap_with_garbage_payload_is_400(self, sort_server):
        with connect(sort_server) as client:
            response = client.request(
                {"type": "swap", "test": "sort2",
                 "payload": protocol.encode_payload(object())}
            )
        assert response["code"] == protocol.BAD_REQUEST


RESULT_FIELDS = ("landmark", "time", "accuracy", "feature_cost", "total_time")


class TestConcurrentDeterminism:
    """N parallel clients with overlapping inputs == the sequential loop."""

    def _sequential_baseline(self, sort_training, inputs):
        deployed = sort_training["training"].deployed
        expected = {}
        for i, data in enumerate(inputs):
            outcome = deployed.run(data)
            expected[i] = {
                "landmark": outcome.landmark_index,
                "time": outcome.result.time,
                "accuracy": outcome.result.accuracy,
                "feature_cost": outcome.feature_extraction_cost,
                "total_time": outcome.total_time,
            }
        return expected

    def _replay(self, server, schedule, swap_with=None):
        """Run per-client input schedules concurrently; collect responses."""
        results = [dict() for _ in schedule]
        errors = []

        def worker(slot):
            try:
                with connect(server) as client:
                    for i, data in schedule[slot]:
                        results[slot][i] = client.run(
                            "sort2", protocol.pickle_input(data)
                        )
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(len(schedule))
        ]
        for thread in threads:
            thread.start()
        if swap_with is not None:
            with connect(server) as control:
                swapped = control.swap("sort2", swap_with)
                assert swapped["type"] == "swapped"
        for thread in threads:
            thread.join()
        assert not errors, errors
        return results

    def test_parallel_overlapping_clients_match_sequential(self, sort_training):
        variant = sort_training["variant"]
        inputs = variant.benchmark.generate_inputs(6, variant.variant, seed=321)
        expected = self._sequential_baseline(sort_training, inputs)

        server = SelectorServer()
        server.publish("sort2", sort_training["training"].deployed)
        # Every client replays every input, in a client-specific order, so
        # each input is requested 4 times across overlapping connections.
        schedule = [
            [(i, inputs[i]) for i in order]
            for order in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0],
                          [2, 0, 4, 1, 5, 3], [3, 5, 1, 4, 0, 2])
        ]
        with ServerThread(server):
            results = self._replay(server, schedule)
        for per_client in results:
            for i, response in per_client.items():
                assert response["type"] == "result"
                for field in RESULT_FIELDS:
                    assert response[field] == expected[i][field], (i, field)
        # 24 requests, 6 unique inputs: at most 6 executions happened.
        assert server.telemetry.counters["runs_executed"] <= len(inputs)

    def test_determinism_survives_mid_stream_hot_swap(self, sort_training):
        variant = sort_training["variant"]
        inputs = variant.benchmark.generate_inputs(5, variant.variant, seed=654)
        expected = self._sequential_baseline(sort_training, inputs)

        server = SelectorServer()
        server.publish("sort2", sort_training["training"].deployed)
        schedule = [
            [(i, inputs[i]) for i in order]
            for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 4, 0, 3, 1])
        ]
        with ServerThread(server):
            # Swap in the identically trained model while clients stream.
            results = self._replay(
                server, schedule, swap_with=sort_training["training"].deployed
            )
            assert server.registry.get("sort2").version == 2
        for per_client in results:
            for i, response in per_client.items():
                assert response["type"] == "result"
                assert response["model_version"] in (1, 2)
                for field in RESULT_FIELDS:
                    assert response[field] == expected[i][field], (i, field)

    def test_two_pool_threads_under_thread_switching(self, sort_training):
        """Stress: two pool threads, eight clients, a short switch interval.

        The event-loop thread stays the only user of the run cache and
        telemetry, so no count is lost, and every answer of a
        duplicate-heavy trace equals the sequential loop's.
        """
        variant = sort_training["variant"]
        inputs = variant.benchmark.generate_inputs(10, variant.variant, seed=987)
        expected = self._sequential_baseline(sort_training, inputs)
        schedules = [
            [random.Random(slot).randrange(len(inputs)) for _ in range(24)]
            for slot in range(8)
        ]
        results = [[] for _ in schedules]
        errors = []

        server = SelectorServer(config=ServingConfig(execution_workers=2))
        server.publish("sort2", sort_training["training"].deployed)

        def worker(slot):
            try:
                with connect(server) as client:
                    for i in schedules[slot]:
                        response = client.run("sort2", protocol.pickle_input(inputs[i]))
                        results[slot].append((i, response))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServerThread(server):
                threads = [
                    threading.Thread(target=worker, args=(slot,))
                    for slot in range(len(schedules))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)

        assert not errors, errors
        requests = sum(len(schedule) for schedule in schedules)
        assert sum(len(answers) for answers in results) == requests
        for answers in results:
            for i, response in answers:
                assert response["type"] == "result"
                for field in RESULT_FIELDS:
                    assert response[field] == expected[i][field], (i, field)
        counters = server.telemetry.counters
        assert counters["serve_requests"] == requests
        assert counters["runs_requested"] == (
            counters["runs_executed"] + counters.get("cache_hits", 0)
        )
        assert (
            counters["runs_executed"]
            + counters.get("serve_coalesced", 0)
            + counters.get("serve_cache_hits", 0)
            == counters["serve_requests"]
        )
